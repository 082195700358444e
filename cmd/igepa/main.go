// Command igepa solves a single IGEPA instance with a chosen algorithm and
// reports the arrangement's utility and diagnostics.
//
// Usage:
//
//	igepa -in instance.json [-alg lp-packing] [-seed 1] [-out arrangement.json]
//	igepa -synthetic [-seed 1] [-alg greedy]         # generate-and-solve
//	igepa -meetup [-seed 1]
//
// The instance format is the JSON produced by igepa-datagen (or
// igepa.SaveInstance).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/ebsn/igepa"
)

func main() {
	var (
		inPath    = flag.String("in", "", "instance JSON file (from igepa-datagen)")
		synthetic = flag.Bool("synthetic", false, "generate a Table I synthetic instance instead of reading -in")
		meetup    = flag.Bool("meetup", false, "generate the Meetup-like instance instead of reading -in")
		alg       = flag.String("alg", "lp-packing", "algorithm: "+strings.Join(igepa.AlgorithmNames(), ", "))
		seed      = flag.Int64("seed", 1, "random seed (generation and algorithm)")
		outPath   = flag.String("out", "", "write the arrangement as JSON to this file")
		stats     = flag.Bool("stats", false, "print instance statistics before solving")
	)
	flag.Parse()
	if err := run(*inPath, *synthetic, *meetup, *alg, *seed, *outPath, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "igepa:", err)
		os.Exit(1)
	}
}

func run(inPath string, synthetic, meetup bool, alg string, seed int64, outPath string, stats bool) error {
	in, err := loadOrGenerate(inPath, synthetic, meetup, seed)
	if err != nil {
		return err
	}
	if stats {
		printStats(in)
	}

	start := time.Now()
	var arr *igepa.Arrangement
	if alg == "lp-packing" {
		res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: seed})
		if err != nil {
			return err
		}
		arr = res.Arrangement
		fmt.Println(lpObjectiveLine(res))
		fmt.Printf("lp columns: %d, pivots: %d, truncated users: %d\n",
			res.LPColumns, res.LPIterations, res.TruncatedUsers)
		fmt.Printf("sampled pairs: %d, repair dropped: %d\n", res.SampledPairs, res.RepairDropped)
	} else {
		arr, err = igepa.Solve(in, alg, seed)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	if err := igepa.Validate(in, arr); err != nil {
		return fmt.Errorf("algorithm produced an infeasible arrangement: %w", err)
	}
	fmt.Printf("algorithm: %s\n", alg)
	fmt.Printf("utility:   %.4f\n", igepa.Utility(in, arr))
	fmt.Printf("pairs:     %d\n", arr.Size())
	fmt.Printf("elapsed:   %v\n", elapsed.Round(time.Millisecond))

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := igepa.SaveArrangement(f, arr); err != nil {
			return err
		}
		fmt.Printf("arrangement written to %s\n", outPath)
	}
	return nil
}

// lpObjectiveLine reports the LP objective, calling it an upper bound on OPT
// only when no user's admissible sets were truncated: a truncated LP lacks
// columns the optimum may use.
func lpObjectiveLine(res *igepa.LPPackingResult) string {
	if res.TruncatedUsers == 0 {
		return fmt.Sprintf("lp objective (upper bound on OPT): %.4f", res.LPObjective)
	}
	return fmt.Sprintf("lp objective (not an upper bound on OPT: %d users' admissible sets truncated): %.4f",
		res.TruncatedUsers, res.LPObjective)
}

func loadOrGenerate(inPath string, synthetic, meetup bool, seed int64) (*igepa.Instance, error) {
	switch {
	case synthetic:
		return igepa.Synthetic(igepa.SyntheticConfig{Seed: seed})
	case meetup:
		return igepa.Meetup(igepa.MeetupConfig{Seed: seed})
	case inPath != "":
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return igepa.LoadInstance(f)
	default:
		return nil, fmt.Errorf("one of -in, -synthetic or -meetup is required")
	}
}

func printStats(in *igepa.Instance) {
	st := igepa.ComputeStats(in)
	fmt.Printf("instance: |V|=%d |U|=%d bids=%d (%.1f/user)\n",
		st.NumEvents, st.NumUsers, st.TotalBids, st.MeanBidsPerUser)
	fmt.Printf("capacity: events mean %.1f, users mean %.1f\n",
		st.MeanEventCapacity, st.MeanUserCapacity)
	fmt.Printf("conflicts: %d pairs (rate %.3f); social: mean degree %.1f, mean DPI %.3f\n",
		st.ConflictPairs, st.ConflictRate, st.MeanDegree, st.MeanDPI)
}
