// Package core implements the paper's primary contribution: the LP-packing
// approximation algorithm for the IGEPA problem (Algorithm 1, §III).
//
// The pipeline is:
//
//  1. enumerate admissible event sets Au for every user (internal/admissible);
//  2. build and solve the benchmark LP (1)-(4) over variables x_{u,S}
//     (internal/lp) — its optimum upper-bounds the integral optimum
//     (Lemma 1), so solver statistics expose it as a certificate;
//  3. for each user sample one admissible set S with probability α·x*_{u,S}
//     (no set with the remaining probability);
//  4. repair event-capacity violations by scanning sampled sets and dropping
//     events whose capacity is exceeded (lines 4-7 of Algorithm 1);
//  5. optionally greedy-fill leftover capacity (an extension, off by
//     default — the paper's algorithm ends after repair).
//
// With α = 1/2 the expected utility is at least OPT/4 (Theorem 2); the
// paper's experiments, and ours, run α = 1.
//
// The per-user stages (enumeration, sampling) run on a bounded worker pool
// (internal/par) with per-user RNG streams (xrand.NewStream), and the
// auto-selected LP solver prices on the same pool — results are
// bit-identical for every worker count and GOMAXPROCS value; see DESIGN.md.
package core

import (
	"fmt"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/par"
	"github.com/ebsn/igepa/internal/xrand"
)

// RepairOrder selects the scan order of the capacity-repair pass.
type RepairOrder int

const (
	// RepairByIndex scans users in index order — the paper's literal
	// "for u ∈ U" reading. The default.
	RepairByIndex RepairOrder = iota
	// RepairRandom scans users in a random order (ablation).
	RepairRandom
	// RepairByWeightAsc scans users by ascending sampled-set weight, so
	// low-value assignments yield capacity first (ablation).
	RepairByWeightAsc
)

// String implements fmt.Stringer.
func (r RepairOrder) String() string {
	switch r {
	case RepairByIndex:
		return "index"
	case RepairRandom:
		return "random"
	case RepairByWeightAsc:
		return "weight-asc"
	default:
		return fmt.Sprintf("RepairOrder(%d)", int(r))
	}
}

// Options configures LPPacking.
type Options struct {
	// Alpha is the sampling rate α ∈ (0,1]. The approximation guarantee
	// holds at 1/2; the paper's experiments use 1. 0 means 1.
	Alpha float64
	// Seed drives the sampling (and RepairRandom) randomness.
	Seed int64
	// MaxSetsPerUser caps admissible-set enumeration per user
	// (see internal/admissible); 0 means the package default.
	MaxSetsPerUser int
	// Repair selects the repair scan order; the default matches the paper.
	Repair RepairOrder
	// GreedyFill, if set, adds a post-repair greedy fill-in of leftover
	// capacity (extension; not part of Algorithm 1).
	GreedyFill bool
	// Workers bounds the worker pool of the per-user stages (admissible-set
	// enumeration and rounding-sample draws) and is forwarded to the LP
	// solver's pricing pool; 0 means GOMAXPROCS. Results are bit-identical
	// for every value: per-user randomness comes from
	// xrand.NewStream(Seed, u), never from a shared stream, and all parallel
	// writes go to caller-owned per-user slots.
	Workers int
	// LP carries the revised-simplex tuning knobs (pricing rules, cadence,
	// parallel thresholds, phase timers) for every solver this package
	// creates: LPPacking's one-shot lp.SolveConfig and the incremental
	// Planner's persistent solver. The zero value keeps all defaults, and
	// LP.Workers == 0 inherits Options.Workers.
	LP lp.Revised
}

// resolveAlpha maps Alpha 0 to 1 and rejects every value outside (0,1],
// NaN included, so the rounding stages read opt.Alpha directly.
func (opt *Options) resolveAlpha() error {
	if opt.Alpha == 0 {
		opt.Alpha = 1
	}
	if !(opt.Alpha > 0 && opt.Alpha <= 1) {
		return fmt.Errorf("core: alpha = %v outside (0,1]", opt.Alpha)
	}
	return nil
}

// lpConfig resolves the solver configuration: the LP knobs with the
// top-level Workers bound as the pool default.
func (opt *Options) lpConfig() lp.Revised {
	cfg := opt.LP
	if cfg.Workers == 0 {
		cfg.Workers = opt.Workers
	}
	return cfg
}

// Result carries the arrangement plus the diagnostics a downstream user
// needs to trust it.
type Result struct {
	Arrangement *model.Arrangement
	Utility     float64

	// LPObjective is the benchmark-LP optimum — a certified upper bound on
	// the optimal integral utility (Lemma 1). Utility/LPObjective therefore
	// lower-bounds the realized approximation factor.
	LPObjective  float64
	LPIterations int
	LPColumns    int

	TruncatedUsers int // users whose admissible sets were capped
	SampledPairs   int // event-user pairs before repair
	RepairDropped  int // pairs removed by the capacity repair
	FilledPairs    int // pairs added by GreedyFill (0 unless enabled)
}

// LPPacking runs Algorithm 1 on the instance.
func LPPacking(in *model.Instance, opt Options) (*Result, error) {
	if err := in.Check(); err != nil {
		return nil, err
	}
	if err := opt.resolveAlpha(); err != nil {
		return nil, err
	}
	rng := xrand.New(opt.Seed)
	workers := par.Workers(opt.Workers)

	// Build the shared weight cache before any parallel stage so the lazy
	// initialization never races; every later stage reads it lock-free.
	in.Weights()

	conf := conflict.FromFunc(in.NumEvents(), in.Conflicts)
	sets, truncated := enumerateAll(in, conf, opt.MaxSetsPerUser, workers)
	prob, owner := BuildBenchmarkLP(in, sets)

	sol, err := lp.SolveConfig(prob, opt.lpConfig())
	if err != nil {
		return nil, fmt.Errorf("core: benchmark LP: %w", err)
	}
	return finish(in, conf, sets, owner, prob, sol, opt, rng, truncated)
}

// enumerateAll computes Au for every user on the bounded worker pool. It
// returns per-user admissible sets and the number of users whose enumeration
// was truncated. Each user's enumeration is independent and writes only its
// own slot, so the result does not depend on the worker count.
func enumerateAll(in *model.Instance, conf *conflict.Matrix, maxSets, workers int) ([][]admissible.Set, int) {
	sets := make([][]admissible.Set, in.NumUsers())
	trunc := make([]bool, in.NumUsers())
	enumerateInto(in, conf, sets, trunc, nil, maxSets, workers)
	truncated := 0
	for _, t := range trunc {
		if t {
			truncated++
		}
	}
	return sets, truncated
}

// BuildBenchmarkLP assembles LP (1)-(4): one column per (user, admissible
// set), a ≤1 row per user and a ≤cv row per event. owner[j] identifies the
// user and set index of column j. The column count and nonzero count are
// known exactly from the enumeration, so the flat CSC arrays are sized in
// one pass and filled in the next — a Meetup-scale build is a handful of
// allocations instead of two per column. Exported for white-box testing and
// for the ablation benchmarks.
func BuildBenchmarkLP(in *model.Instance, sets [][]admissible.Set) (*lp.Problem, [][2]int) {
	nu, nv := in.NumUsers(), in.NumEvents()
	p := &lp.Problem{NumRows: nu + nv, B: make([]float64, nu+nv)}
	for u := 0; u < nu; u++ {
		p.B[u] = 1
	}
	for v := 0; v < nv; v++ {
		p.B[nu+v] = float64(in.Events[v].Capacity)
	}
	ncols, nnz := 0, 0
	for _, us := range sets {
		ncols += len(us)
		for _, s := range us {
			nnz += len(s.Events) + 1
		}
	}
	p.Reserve(ncols, nnz)
	p.ColPtr = append(p.ColPtr, 0)
	owner := make([][2]int, 0, ncols)
	for u, us := range sets {
		for si, s := range us {
			p.Rows = append(p.Rows, int32(u))
			for _, v := range s.Events {
				p.Rows = append(p.Rows, int32(nu+v))
			}
			p.ColPtr = append(p.ColPtr, len(p.Rows))
			p.C = append(p.C, s.Weight)
			owner = append(owner, [2]int{u, si})
		}
	}
	return p, owner
}

// finish performs sampling, repair and (optionally) fill, and assembles the
// Result. opt.Alpha must already be resolved (resolveAlpha).
func finish(in *model.Instance, conf *conflict.Matrix, sets [][]admissible.Set,
	owner [][2]int, prob *lp.Problem, sol *lp.Solution,
	opt Options, rng *xrand.RNG, truncated int) (*Result, error) {

	// Per-user sampling distributions α·x*_{u,S}.
	chosen := SampleSets(in.NumUsers(), sets, owner, sol.X, opt.Alpha, opt.Seed, opt.Workers)

	arr, dropped := Repair(in, sets, chosen, opt.Repair, rng)

	filled := 0
	if opt.GreedyFill {
		filled = greedyFill(in, conf, arr)
	}
	arr.Normalize()

	res := &Result{
		Arrangement:    arr,
		Utility:        model.Utility(in, arr),
		LPObjective:    sol.Objective,
		LPIterations:   sol.Iterations,
		LPColumns:      prob.NumCols(),
		TruncatedUsers: truncated,
		SampledPairs:   pairsOf(sets, chosen),
		RepairDropped:  dropped,
		FilledPairs:    filled,
	}
	return res, nil
}

func pairsOf(sets [][]admissible.Set, chosen []int) int {
	n := 0
	for u, s := range chosen {
		if s >= 0 {
			n += len(sets[u][s].Events)
		}
	}
	return n
}

// SampleSets draws, for each user, the index of the sampled admissible set
// (or -1 for none) with probabilities α·x*. User u draws from the dedicated
// deterministic stream xrand.NewStream(seed, u), so the draws parallelize
// over the bounded pool (workers = 0 means GOMAXPROCS) with bit-identical
// results for every worker count. Exported for the rounding unit tests.
func SampleSets(numUsers int, sets [][]admissible.Set, owner [][2]int, x []float64, alpha float64, seed int64, workers int) []int {
	// Gather the per-user probability vectors in set order, as slices of one
	// flat backing array.
	off := make([]int, numUsers+1)
	for u := 0; u < numUsers; u++ {
		off[u+1] = off[u] + len(sets[u])
	}
	probs := make([]float64, off[numUsers])
	for j, ow := range owner {
		probs[off[ow[0]]+ow[1]] = clampProb(alpha * x[j])
	}
	chosen := make([]int, numUsers)
	par.For(workers, numUsers, 64, func(u int) {
		w := probs[off[u]:off[u+1]]
		if len(w) == 0 {
			chosen[u] = -1
			return
		}
		normalizeSubDistribution(w)
		chosen[u] = xrand.NewStream(seed, uint64(u)).Categorical(w)
	})
	return chosen
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// normalizeSubDistribution rescales w in place if round-off pushed its sum
// above 1 (the LP guarantees Σ x*_{u,S} ≤ 1 only up to tolerance).
func normalizeSubDistribution(w []float64) {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum > 1 {
		inv := 1 / sum
		for i := range w {
			w[i] *= inv
		}
	}
}

// Repair implements lines 4-7 of Algorithm 1: given each user's sampled set,
// drop events whose capacity the combined assignment would violate. The scan
// order over users is configurable; within a user events are scanned in the
// sampled set's stored order. Returns the arrangement and the number of
// dropped pairs. Exported for the rounding unit tests and ablations.
func Repair(in *model.Instance, sets [][]admissible.Set, chosen []int, order RepairOrder, rng *xrand.RNG) (*model.Arrangement, int) {
	nu := in.NumUsers()
	load := make([]int, in.NumEvents())
	for u := 0; u < nu; u++ {
		if s := chosen[u]; s >= 0 {
			for _, v := range sets[u][s].Events {
				load[v]++
			}
		}
	}

	scan := make([]int, nu)
	for i := range scan {
		scan[i] = i
	}
	switch order {
	case RepairRandom:
		rng.Shuffle(nu, func(i, j int) { scan[i], scan[j] = scan[j], scan[i] })
	case RepairByWeightAsc:
		w := make([]float64, nu)
		for u := range w {
			if s := chosen[u]; s >= 0 {
				w[u] = sets[u][s].Weight
			}
		}
		sortByWeight(scan, w)
	}

	arr := model.NewArrangement(nu)
	dropped := 0
	for _, u := range scan {
		s := chosen[u]
		if s < 0 {
			continue
		}
		var kept []int
		for _, v := range sets[u][s].Events {
			if load[v] > in.Events[v].Capacity {
				load[v]--
				dropped++
				continue
			}
			kept = append(kept, v)
		}
		arr.Sets[u] = kept
	}
	return arr, dropped
}

// sortByWeight sorts scan ascending by w[scan[i]], stable on user index.
func sortByWeight(scan []int, w []float64) {
	// insertion sort is fine here (n = |U|); but use an O(n log n) sort for
	// the large sweeps.
	quicksortByKey(scan, w, 0, len(scan)-1)
}

func quicksortByKey(idx []int, key []float64, lo, hi int) {
	for lo < hi {
		p := partitionByKey(idx, key, lo, hi)
		if p-lo < hi-p {
			quicksortByKey(idx, key, lo, p-1)
			lo = p + 1
		} else {
			quicksortByKey(idx, key, p+1, hi)
			hi = p - 1
		}
	}
}

func partitionByKey(idx []int, key []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// median-of-three on (key, index) pairs for deterministic total order
	if less(key, idx[mid], idx[lo]) {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if less(key, idx[hi], idx[lo]) {
		idx[hi], idx[lo] = idx[lo], idx[hi]
	}
	if less(key, idx[hi], idx[mid]) {
		idx[hi], idx[mid] = idx[mid], idx[hi]
	}
	pivot := idx[mid]
	idx[mid], idx[hi] = idx[hi], idx[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if less(key, idx[i], pivot) {
			idx[i], idx[store] = idx[store], idx[i]
			store++
		}
	}
	idx[store], idx[hi] = idx[hi], idx[store]
	return store
}

func less(key []float64, a, b int) bool {
	if key[a] != key[b] {
		return key[a] < key[b]
	}
	return a < b
}

// greedyFill adds feasible (weight-descending) pairs left open after repair.
// It relies on arr.Sets[u] being sorted ascending at entry (repair preserves
// the enumeration's sorted event order), so candidate membership is a binary
// search instead of a per-user map.
func greedyFill(in *model.Instance, conf *conflict.Matrix, arr *model.Arrangement) int {
	type cand struct {
		u, v int
		w    float64
	}
	wc := in.Weights()
	load := make([]int, in.NumEvents())
	for _, set := range arr.Sets {
		for _, v := range set {
			load[v]++
		}
	}
	var cands []cand
	for u := range in.Users {
		if len(arr.Sets[u]) >= in.Users[u].Capacity {
			continue
		}
		set := arr.Sets[u]
		for i, v := range in.Users[u].Bids {
			if !model.Contains(set, v) && load[v] < in.Events[v].Capacity {
				cands = append(cands, cand{u, v, wc.At(u, i)})
			}
		}
	}
	idx := make([]int, len(cands))
	keys := make([]float64, len(cands))
	for i := range cands {
		idx[i] = i
		keys[i] = -cands[i].w // descending
	}
	quicksortByKey(idx, keys, 0, len(idx)-1)

	added := 0
	for _, i := range idx {
		c := cands[i]
		if len(arr.Sets[c.u]) >= in.Users[c.u].Capacity || load[c.v] >= in.Events[c.v].Capacity {
			continue
		}
		ok := true
		for _, v := range arr.Sets[c.u] {
			if v == c.v || conf.Conflicts(v, c.v) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		arr.Sets[c.u] = append(arr.Sets[c.u], c.v)
		load[c.v]++
		added++
	}
	return added
}
