// Package core implements the paper's primary contribution: the LP-packing
// approximation algorithm for the IGEPA problem (Algorithm 1, §III).
//
// The pipeline is:
//
//  1. enumerate admissible event sets Au for every user (internal/admissible)
//     straight into the columns of the benchmark LP (1)-(4) over variables
//     x_{u,S}: a column is its set, so no set is stored;
//  2. solve the LP (internal/lp) — with untruncated families its optimum
//     upper-bounds the integral optimum (Lemma 1);
//  3. for each user sample one admissible set S with probability α·x*_{u,S}
//     from the user's column list (no set with the remaining probability);
//  4. repair event-capacity violations by scanning sampled sets and dropping
//     events whose capacity is exceeded (lines 4-7 of Algorithm 1);
//  5. optionally greedy-fill leftover capacity (an extension, off by
//     default — the paper's algorithm ends after repair).
//
// With α = 1/2 the expected utility is at least OPT/4 (Theorem 2); the
// paper's experiments, and ours, run α = 1.
//
// LPPacking is one cold run of that pipeline, and a Planner keeps it live
// under instance deltas: LPPacking is NewPlanner, then Round, then Close.
//
// The per-user stages (enumeration, sampling) run on a bounded worker pool
// (internal/par) with per-user RNG streams (xrand.NewStream), and the
// revised-simplex LP solver prices on the same pool — results are
// bit-identical for every worker count and GOMAXPROCS value; see DESIGN.md.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	// solver's pricing pool; 0 means GOMAXPROCS, and a negative value is an
	// error. Results are bit-identical for every value: per-user randomness
	// comes from xrand.NewStream(Seed, u), never from a shared stream, and
	// all parallel writes go to caller-owned per-user slots.
	Workers int
	// LP configures the Planner's LP solver; LP.Workers == 0 inherits
	// Workers.
	LP lp.Revised
}

// resolve maps Alpha 0 to 1 and rejects an Alpha outside (0,1], NaN
// included, or a negative Workers, so the later stages read both directly.
func (opt *Options) resolve() error {
	if opt.Alpha == 0 {
		opt.Alpha = 1
	}
	if !(opt.Alpha > 0 && opt.Alpha <= 1) {
		return fmt.Errorf("core: alpha = %v outside (0,1]", opt.Alpha)
	}
	if opt.Workers < 0 {
		return fmt.Errorf("core: Options.Workers = %d is negative", opt.Workers)
	}
	return nil
}

// lpConfig is LP with Workers as its worker bound's default.
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

	// LPObjective is the optimum of the LP that was solved. It bounds the
	// optimal integral utility from above (Lemma 1) only when
	// TruncatedUsers == 0: a truncated user's LP lacks some of its
	// admissible sets, so the LP is a restriction of the benchmark LP and
	// its optimum can fall below OPT. Only then does Utility/LPObjective
	// lower-bound the realized approximation factor.
	//
	// The solver breaks degeneracy by raising each right-hand side b by at
	// most 2·10⁻⁷·(1+b) (lp.SolveConfig), and LPObjective is the optimum of
	// that perturbed LP. It can exceed the unperturbed optimum by about
	// 3·10⁻⁷ relative, so a Utility/LPObjective of 0.9999997 is the
	// perturbation, not a rounding loss.
	LPObjective  float64
	LPIterations int
	LPColumns    int

	TruncatedUsers int // users whose admissible sets were capped
	SampledPairs   int // event-user pairs before repair
	RepairDropped  int // pairs removed by the capacity repair
	FilledPairs    int // pairs added by GreedyFill (0 unless enabled)
}

// LPPacking runs Algorithm 1 on the instance: a Planner's cold build and
// first Round.
func LPPacking(in *model.Instance, opt Options) (*Result, error) {
	p, err := NewPlanner(in, opt)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Round()
}

// walkers pools the enumeration scratch of the LP build's workers and of
// the Planner's re-enumeration of changed users.
var walkers = sync.Pool{New: func() any { return new(admissible.Walker) }}

// enumerateLP builds the benchmark LP straight from the admissible-set DFS,
// keeping no set: a counting walk per user sizes the user's columns and
// nonzeros, a prefix sum places every user's block in arrays allocated at
// their exact size, and a second walk writes each set into its column. The
// LP equals BuildBenchmarkLP over Enumerate's sets bit for bit, and user u's
// columns are [colStart[u], colStart[u+1]), in set order. It also returns
// which users' enumerations were truncated. Both passes run on the bounded
// worker pool and write only their users' slots, so the LP does not depend
// on the worker count.
func enumerateLP(in *model.Instance, conf *conflict.Matrix, maxSets, workers int) (*lp.Problem, []int, []bool) {
	nu := in.NumUsers()
	wc := in.Weights()
	cfg := admissible.Config{MaxSetsPerUser: maxSets}
	walk := func(wk *admissible.Walker, u int, emit func([]int, float64)) bool {
		usr := &in.Users[u]
		return wk.Walk(usr.Bids, usr.Capacity, conf, func(v int) float64 { return wc.Of(u, v) }, cfg, emit)
	}

	// Count: colStart[u+1] and nzStart[u+1] take user u's totals, then the
	// prefix sum turns them into offsets.
	colStart, nzStart := make([]int, nu+1), make([]int, nu+1)
	trunc := make([]bool, nu)
	par.Ranges(workers, nu, 16, func(lo, hi int) {
		wk := walkers.Get().(*admissible.Walker)
		c := &columnCounter{}
		emit := c.emit
		for u := lo; u < hi; u++ {
			*c = columnCounter{}
			trunc[u] = walk(wk, u, emit)
			colStart[u+1], nzStart[u+1] = c.cols, c.nnz
		}
		walkers.Put(wk)
	})
	for u := 0; u < nu; u++ {
		colStart[u+1] += colStart[u]
		nzStart[u+1] += nzStart[u]
	}

	// Fill: every user writes its own block.
	p := newBenchmarkLP(in)
	n := colStart[nu]
	p.C, p.ColPtr, p.Rows = make([]float64, n), make([]int, n+1), make([]int32, nzStart[nu])
	par.Ranges(workers, nu, 16, func(lo, hi int) {
		wk := walkers.Get().(*admissible.Walker)
		cw := &columnWriter{p: p, nu: int32(nu)}
		emit := cw.emit
		for u := lo; u < hi; u++ {
			cw.user, cw.col, cw.nz = int32(u), colStart[u], nzStart[u]
			walk(wk, u, emit)
		}
		walkers.Put(wk)
	})
	return p, colStart, trunc
}

// countTrue counts the set flags.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// columnCounter is the counting sink of enumerateLP's first pass.
type columnCounter struct{ cols, nnz int }

func (c *columnCounter) emit(events []int, _ float64) {
	c.cols++
	c.nnz += len(events) + 1
}

// columnWriter turns sets into columns, the filling sink of enumerateLP's
// second pass: set S of user u becomes column col, with u's row followed by
// S's event rows, and cost w(u,S).
type columnWriter struct {
	p        *lp.Problem
	user, nu int32
	col, nz  int
}

func (cw *columnWriter) emit(events []int, weight float64) {
	rows := cw.p.Rows[cw.nz : cw.nz+len(events)+1]
	rows[0] = cw.user
	for k, v := range events {
		rows[k+1] = cw.nu + int32(v)
	}
	cw.nz += len(rows)
	cw.p.C[cw.col] = weight
	cw.col++
	cw.p.ColPtr[cw.col] = cw.nz
}

// newBenchmarkLP returns LP (1)-(4) without columns: a ≤1 row per user and a
// ≤cv row per event.
func newBenchmarkLP(in *model.Instance) *lp.Problem {
	nu, nv := in.NumUsers(), in.NumEvents()
	p := &lp.Problem{NumRows: nu + nv, B: make([]float64, nu+nv)}
	for u := 0; u < nu; u++ {
		p.B[u] = 1
	}
	for v := 0; v < nv; v++ {
		p.B[nu+v] = float64(in.Events[v].Capacity)
	}
	return p
}

// BuildBenchmarkLP assembles LP (1)-(4) from stored admissible sets: one
// column per (user, admissible set), a ≤1 row per user and a ≤cv row per
// event. owner[j] identifies the user and set index of column j. LPPacking
// and the Planner build the same LP from the enumeration without storing
// the sets (enumerateLP). Exported for the benchmark's staged re-enactment.
func BuildBenchmarkLP(in *model.Instance, sets [][]admissible.Set) (*lp.Problem, [][2]int) {
	p := newBenchmarkLP(in)
	ncols, nnz := 0, 0
	for _, us := range sets {
		ncols += len(us)
		for _, s := range us {
			nnz += len(s.Events) + 1
		}
	}
	p.C, p.ColPtr, p.Rows = make([]float64, ncols), make([]int, ncols+1), make([]int32, nnz)
	cw := &columnWriter{p: p, nu: int32(in.NumUsers())}
	owner := make([][2]int, 0, ncols)
	for u, us := range sets {
		cw.user = int32(u)
		for si, s := range us {
			cw.emit(s.Events, s.Weight)
			owner = append(owner, [2]int{u, si})
		}
	}
	return p, owner
}

// finish repairs the drawn sets, optionally fills, and assembles the
// Result. opt must already be resolved (Options.resolve).
func finish(in *model.Instance, conf *conflict.Matrix, pk *picks, columns int, sol *lp.Solution,
	opt Options, rng *xrand.RNG, truncated int) *Result {

	arr, dropped := repair(in, pk, opt.Repair, rng)

	filled := 0
	if opt.GreedyFill {
		filled = greedyFill(in, conf, arr)
	}
	arr.Normalize()

	return &Result{
		Arrangement:    arr,
		Utility:        model.Utility(in, arr),
		LPObjective:    sol.Objective,
		LPIterations:   sol.Iterations,
		LPColumns:      columns,
		TruncatedUsers: truncated,
		SampledPairs:   len(pk.events),
		RepairDropped:  dropped,
		FilledPairs:    filled,
	}
}

// SampleSets draws, for each user, the index of the sampled admissible set
// (or -1 for none) with probabilities α·x*, where owner maps LP column j to
// its (user, set index). It lists each user's columns in set order and runs
// the Planner's draw kernel on those lists. Exported for the benchmark's
// staged re-enactment and the rounding unit tests.
func SampleSets(numUsers int, sets [][]admissible.Set, owner [][2]int, x []float64, alpha float64, seed int64, workers int) []int {
	flat := make([]int32, len(owner))
	cols := make([][]int32, numUsers)
	off := 0
	for u := range cols {
		cols[u] = flat[off : off+len(sets[u])]
		off += len(sets[u])
	}
	for j, ow := range owner {
		cols[ow[0]][ow[1]] = int32(j)
	}
	chosen := make([]int, numUsers)
	drawColumns(cols, x, nil, chosen, alpha, seed, workers)
	for u, j := range chosen {
		if j >= 0 {
			chosen[u] = owner[j][1]
		}
	}
	return chosen
}

// drawColumns is the draw kernel. For each i, user u = users[i] (u = i when
// users is nil) draws one column of its list cols[u] with probabilities
// α·x_j over the list, in list order, or none with the remaining
// probability; drawn[i] receives the column, or -1 for none. User u draws
// from the dedicated deterministic stream xrand.NewStream(seed, u), so the
// draws parallelize over the bounded pool (workers = 0 means GOMAXPROCS)
// with bit-identical results for every worker count.
func drawColumns(cols [][]int32, x []float64, users []int, drawn []int, alpha float64, seed int64, workers int) {
	par.Ranges(workers, len(drawn), 64, func(lo, hi int) {
		var w []float64
		for i := lo; i < hi; i++ {
			u := i
			if users != nil {
				u = users[i]
			}
			w = w[:0]
			for _, j := range cols[u] {
				w = append(w, clampProb(alpha*x[j]))
			}
			drawn[i] = -1
			if c := draw(w, seed, u); c >= 0 {
				drawn[i] = int(cols[u][c])
			}
		}
	})
}

// draw samples user u's set index from w, the clamped α·x* of its sets in
// set order (normalized in place), or -1 for none.
func draw(w []float64, seed int64, u int) int {
	if len(w) == 0 {
		return -1
	}
	normalizeSubDistribution(w)
	return xrand.NewStream(seed, uint64(u)).Categorical(w)
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

// picks is the sampled arrangement before repair: user u drew the set of
// weight weight[u] whose events, ascending, are events[off[u]:off[u+1]]; an
// empty range means no set.
type picks struct {
	off    []int
	events []int
	weight []float64
}

// columnPicks reads each user's drawn set from its LP column: drawn[u] is
// the column user u drew, or -1 for none, and the set is the column's
// events (appendEvents) with its cost as weight.
func columnPicks(prob *lp.Problem, drawn []int) *picks {
	nu := len(drawn)
	pk := &picks{off: make([]int, nu+1), weight: make([]float64, nu)}
	for u, j := range drawn {
		if j >= 0 {
			pk.events = appendEvents(pk.events, prob, j, nu)
			pk.weight[u] = prob.C[j]
		}
		pk.off[u+1] = len(pk.events)
	}
	return pk
}

// appendEvents appends the events of the set behind LP column j to dst:
// the column's rows past the user row, minus |U| = nu.
func appendEvents(dst []int, prob *lp.Problem, j, nu int) []int {
	for _, r := range prob.Col(j)[1:] {
		dst = append(dst, int(r)-nu)
	}
	return dst
}

// setPicks reads each user's drawn set from its stored admissible sets.
func setPicks(sets [][]admissible.Set, chosen []int) *picks {
	pk := &picks{off: make([]int, len(chosen)+1), weight: make([]float64, len(chosen))}
	for u, c := range chosen {
		if c >= 0 {
			pk.events = append(pk.events, sets[u][c].Events...)
			pk.weight[u] = sets[u][c].Weight
		}
		pk.off[u+1] = len(pk.events)
	}
	return pk
}

// Repair implements lines 4-7 of Algorithm 1: given each user's sampled set,
// drop events whose capacity the combined assignment would violate. The scan
// order over users is configurable; within a user events are scanned in the
// sampled set's stored order. Returns the arrangement and the number of
// dropped pairs. It runs the repair kernel Planner.Round runs on its LP's
// columns. Exported for the benchmark's staged re-enactment, the rounding
// unit tests and ablations.
func Repair(in *model.Instance, sets [][]admissible.Set, chosen []int, order RepairOrder, rng *xrand.RNG) (*model.Arrangement, int) {
	return repair(in, setPicks(sets, chosen), order, rng)
}

// repair is the repair kernel behind Repair and LPPacking.
func repair(in *model.Instance, pk *picks, order RepairOrder, rng *xrand.RNG) (*model.Arrangement, int) {
	nu := in.NumUsers()
	load := make([]int, in.NumEvents())
	for _, v := range pk.events {
		load[v]++
	}

	scan := make([]int, nu)
	for i := range scan {
		scan[i] = i
	}
	switch order {
	case RepairRandom:
		rng.Shuffle(nu, func(i, j int) { scan[i], scan[j] = scan[j], scan[i] })
	case RepairByWeightAsc:
		sortByKey(scan, pk.weight)
	}

	arr := model.NewArrangement(nu)
	dropped := 0
	for _, u := range scan {
		events := pk.events[pk.off[u]:pk.off[u+1]]
		if len(events) == 0 {
			continue
		}
		var kept []int
		for _, v := range events {
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

// sortByKey sorts idx ascending by key[idx[i]], ties by index: a total
// order, so the permutation does not depend on the sort algorithm.
func sortByKey(idx []int, key []float64) {
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(key[a], key[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
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
	sortByKey(idx, keys)

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
