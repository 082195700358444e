// Command igepa-bench regenerates every table and figure of the paper's
// evaluation (§IV): Fig. 1(a)–(f) utility sweeps on synthetic data, Table II
// on the Meetup-like dataset, the empirical approximation-ratio experiment
// behind Theorem 2, and the reproduction's own ablations.
//
// Usage:
//
//	igepa-bench -exp all                 # everything (fig1b is the slow one)
//	igepa-bench -exp fig1c -reps 50      # one experiment at paper repetitions
//	igepa-bench -exp table2 -csv out/    # also write CSV series
//	igepa-bench -exp ratio
//
// Results print as aligned text tables (one series per algorithm — the same
// series the paper plots); -csv additionally writes one machine-readable
// file per experiment, ratio.csv included. REPRODUCTION.md records one run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/ebsn/igepa/internal/eval"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id: all, ratio, or one of "+strings.Join(eval.PaperExperimentIDs(), ", "))
		reps  = flag.Int("reps", 5, "repetitions per point (the paper uses 50)")
		seed  = flag.Int64("seed", 1, "base seed")
		csv   = flag.String("csv", "", "directory for CSV output (optional)")
		chart = flag.Bool("chart", false, "also draw each experiment as an ASCII line chart")
		par   = flag.Int("parallel", 0, "max concurrent repetitions (0 = all cores)")
		q     = flag.Bool("quiet", false, "suppress progress lines")
		cpup  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memp  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *cpup != "" {
		f, err := os.Create(*cpup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "igepa-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "igepa-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(*exp, *reps, *seed, *csv, *par, *q, *chart)
	if *memp != "" {
		f, ferr := os.Create(*memp)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "igepa-bench:", ferr)
		} else {
			runtime.GC() // settle live heap before the snapshot
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintln(os.Stderr, "igepa-bench:", werr)
			}
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "igepa-bench:", err)
		pprof.StopCPUProfile() // flush the profile even on the error path
		os.Exit(1)
	}
}

func run(exp string, reps int, seed int64, csvDir string, par int, quiet, chart bool) error {
	ids := []string{exp}
	if exp == "all" {
		ids = append(eval.PaperExperimentIDs(), "ratio")
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		if id == "ratio" {
			if err := runRatio(seed, csvDir, quiet); err != nil {
				return err
			}
			continue
		}
		if err := runExperiment(id, reps, seed, csvDir, par, quiet, chart); err != nil {
			return err
		}
	}
	return nil
}

func runExperiment(id string, reps int, seed int64, csvDir string, par int, quiet, chart bool) error {
	e, err := eval.Paper(id, seed)
	if err != nil {
		return err
	}
	cfg := eval.RunConfig{Reps: reps, Seed: seed, Parallelism: par, Validate: true}
	if !quiet {
		cfg.Progress = os.Stderr
	}
	start := time.Now()
	table, err := eval.Run(e, cfg)
	if err != nil {
		return err
	}
	if err := eval.RenderText(os.Stdout, table); err != nil {
		return err
	}
	if chart {
		fmt.Println()
		if err := eval.RenderChart(os.Stdout, table); err != nil {
			return err
		}
	}
	fmt.Printf("(%s completed in %v)\n", id, time.Since(start).Round(time.Second))
	if csvDir == "" {
		return nil
	}
	return writeCSV(csvDir, id, func(w io.Writer) error { return eval.RenderCSV(w, table) })
}

func runRatio(seed int64, csvDir string, quiet bool) error {
	var progress *os.File
	if !quiet {
		progress = os.Stderr
	}
	start := time.Now()
	res, err := eval.RunRatio(eval.RatioConfig{Seed: seed}, progress)
	if err != nil {
		return err
	}
	if err := eval.RenderRatioText(os.Stdout, res); err != nil {
		return err
	}
	fmt.Printf("(ratio completed in %v)\n", time.Since(start).Round(time.Second))
	if csvDir == "" {
		return nil
	}
	return writeCSV(csvDir, "ratio", func(w io.Writer) error { return eval.RenderRatioCSV(w, res) })
}

// writeCSV renders one experiment's CSV into dir/id.csv.
func writeCSV(dir, id string, render func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("CSV written to %s\n", path)
	return nil
}
