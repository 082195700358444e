// Command bench is the repository's benchmark: six named workloads driven
// through the stack's public functions and HTTP handlers, a fixed set of
// end-to-end metrics with regression bounds, and a separate traced run that
// splits each end-to-end number into its layers. BENCHMARK.json at the repo
// root is the catalogue (workloads, metric names, units, bounds); README.md
// in this directory says why each workload and metric exists.
//
//	go run ./bench                                   # all six workloads, end to end
//	go run ./bench -workload serve_heavy -seed 2     # one workload, another seed
//	go run ./bench -workload plan_wide -trace 1      # per-layer breakdown + span file
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}; the exit code is non-zero on
// any correctness violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, each in its own child process)")
	seed := flag.Int64("seed", 1, "seed of every generated input: instance, arrival permutation, Poisson gaps, delta stream")
	seconds := flag.Float64("seconds", 15, "measuring time per run (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json instead of the end-to-end metrics")
	flag.Parse()

	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	// min(nproc, 4): the sandbox has 2 cores, CI runners 4; more would make
	// the in-process load generator outnumber the cores it shares.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	if *workload == "" {
		os.Exit(runAll(sp, *seed, *seconds, *trace))
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: "bench/out"}
	printEnv(cfg)
	res, err := run(sp, cfg)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs every workload of the catalogue in its own child process, so
// that one workload's peak RSS and GC state do not leak into the next, and
// returns the exit code: non-zero if any child reported a violation.
func runAll(sp *spec, seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range sp.Workloads {
		fmt.Printf("=== %s — %s\n", w.Name, w.Why)
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Printf("=== %s FAILED: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// printEnv records what a reader needs to compare two outputs: commit,
// toolchain, cores, CPU model and the seed.
func printEnv(cfg config) {
	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "git": gitSHA(),
	}
	b, _ := json.Marshal(env)
	fmt.Println("env:", string(b))
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
