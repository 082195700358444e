// Ratio: measure LP-packing's empirical approximation ratio against the
// exact optimum on small instances — the experimental counterpart of
// Theorem 2 (expected utility ≥ OPT/4 at sampling rate α = 1/2).
//
// For each instance the exact optimum comes from branch-and-bound
// (igepa.Optimal); LP-packing is sampled repeatedly to estimate its expected
// utility; and the LP objective certifies Lemma 1 (LP ≥ OPT) as a bonus.
package main

import (
	"fmt"
	"log"

	"github.com/ebsn/igepa"
)

func main() {
	const (
		instances = 12
		samples   = 30
		alpha     = 0.5 // Theorem 2's setting; the paper's evaluation uses 1
	)

	fmt.Printf("empirical approximation ratio at alpha=%.1f (%d instances × %d samples)\n\n",
		alpha, instances, samples)
	fmt.Println("instance   |V| |U|   OPT     E[ALG]  ratio   LP/OPT")
	fmt.Println("---------------------------------------------------")

	worst := 1.0
	sum := 0.0
	count := 0
	truncated := 0 // users with truncated admissible sets, over all instances
	for i := 0; i < instances; i++ {
		in, err := igepa.Synthetic(igepa.SyntheticConfig{
			Seed:      int64(1000 + i),
			NumEvents: 6 + i%4, NumUsers: 6 + i%5,
			MaxEventCap: 2, MaxUserCap: 3, MinBids: 2, MaxBids: 4,
		})
		if err != nil {
			log.Fatal(err)
		}
		_, opt, err := igepa.Optimal(in)
		if err != nil {
			log.Fatal(err)
		}
		if opt == 0 {
			continue
		}

		total := 0.0
		var lpBound float64
		var instTruncated int
		for s := 0; s < samples; s++ {
			res, err := igepa.LPPacking(in, igepa.LPPackingOptions{
				Alpha: alpha, Seed: int64(i*samples + s),
			})
			if err != nil {
				log.Fatal(err)
			}
			total += res.Utility
			lpBound, instTruncated = res.LPObjective, res.TruncatedUsers
		}
		truncated += instTruncated
		mean := total / samples
		ratio := mean / opt
		fmt.Printf("%8d   %3d %3d   %-7.3f %-7.3f %-7.3f %.3f\n",
			i, in.NumEvents(), in.NumUsers(), opt, mean, ratio, lpBound/opt)
		sum += ratio
		count++
		if ratio < worst {
			worst = ratio
		}
	}

	fmt.Printf("\nmean ratio %.3f, worst %.3f — Theorem 2 guarantees ≥ 0.25 in expectation\n",
		sum/float64(count), worst)
	if truncated == 0 {
		fmt.Println("(LP/OPT ≥ 1 on every row certifies Lemma 1: the LP bounds the optimum)")
	} else {
		fmt.Printf("(%d users' admissible sets truncated: the LP need not bound the optimum)\n", truncated)
	}
}
