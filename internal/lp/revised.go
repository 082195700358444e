package lp

import (
	"math"
	"math/bits"
	"slices"

	"github.com/ebsn/igepa/internal/par"
)

// Revised configures the revised primal simplex, the package's one
// simplex: SolveConfig runs it once, and a Solver keeps its state for warm
// re-solves. The basis inverse is never formed: the basis is kept as a
// sparse LU factorization (lu.go) plus a product-form eta file of the
// pivots since the last refactorization, so each iteration costs a few
// sparse triangular solve pairs plus pricing.
//
// Pricing is partial Dantzig or Devex (Forrest–Goldfarb reference weights
// with incrementally updated reduced costs), and the LP's shape alone picks
// the rule (selectDevex), so every benchmark LP prices by partial Dantzig
// except the Devex class of plan_tall (3050 rows). Above the row threshold
// the benchmark LP is a heavily degenerate transportation-like program on
// which textbook Dantzig pricing zigzags — measured on the |U|=4000 Table I
// workload, Dantzig took ~96k pivots with 55k re-entries of previously
// basic columns; Devex cuts both dramatically.
//
// Partial Dantzig keeps the duals incrementally: each pivot steps y along
// the leaving row of the basis inverse, β = B⁻ᵀe_r, a hypersparse unit
// BTRAN, instead of re-solving Bᵀy = c_B; a full BTRAN runs only at
// refactorizations, after Bland pivots and to certify optimality (see
// pivot). A reduced-cost cache then recomputes only the columns on β's
// rows.
//
// Three scans serve a partial Dantzig call, and all three return the plain
// scan's (q, next) bit for bit, so the choice moves no pivot. The plain scan
// computes each reduced cost from the duals. The cached scan reads no
// variable the synced cache does not mark improving: a bitset beside the
// cache (the candidate index) holds exactly those, and a second one the
// tombstones, whose popcounts find where the window ends (priceIndexed).
// Before each call a rule picks between the two by counted work, not by
// warm versus cold (cacheWins): what a synced cache costs per call, the rows
// of the dual steps since the last call plus the candidate reads, against
// what the plain scan reads, each a running mean over the calls so far. A
// cache the plain scan left stale catches up when it next wins.
// Exact duals carry across
// warm re-solves: a btran on a basis, factorization and c_B unchanged since
// the last one returns at once (yExact), so a delta that leaves them alone
// costs no dense BTRAN before its first pivot.
//
// The third scan serves a cold solve whose blocks of consecutive variables
// keep a dual bound (priceBounds): it counts a block as scanned without
// reading its columns when the bound proves none of them improving. A block
// keeps a bound only where its columns share few rows, as on Meetup LPs,
// whose blocks hold one or two users' sets; there it serves every call and
// no cache is built. On the synthetic LPs no block keeps one, and the rule
// picks.
//
// A Devex pivot costs what its pivot row touches. One builder, pivotRow,
// serves it and the dual repair: a sparse pivot row is scattered through a
// row-major mirror of A and updates only the columns it reaches, a dense one
// is swept over every row of β and updates every column; pricing keeps the
// best candidate of every fixed block of columns and rescans only the blocks
// an update wrote. The dense update pass, the reduced-cost
// refresh and large block rescans run on a bounded worker pool. Every
// column's update is arithmetically independent and the block maxima fold
// in column order, so the solve is bit-identical for every worker count and
// GOMAXPROCS setting.
//
// A caller sets only the worker bound and the phase-timer sink; every other
// setting is the package default.
type Revised struct {
	// Workers bounds the pricing worker pool; 0 means GOMAXPROCS. Results
	// do not depend on it. A negative value is rejected with an
	// *OptionError.
	Workers int
	// Timers, when non-nil, accumulates per-phase wall time (FTRAN, BTRAN,
	// pricing, Devex update, refactorization) and pivot counts across every
	// solve run with this config. Timing is sampled at the kernel leaves so
	// the phases are disjoint; a nil Timers costs a predicted-not-taken
	// branch per kernel call. Not synchronized: meaningful only when the
	// config drives one solve at a time.
	Timers *PhaseTimers

	// tuning overrides the package defaults. Only this package's tests set
	// it, to force a pricing rule or a pooled kernel on a small LP.
	tuning tuning
}

// pricingRule is tuning's pricing override.
type pricingRule uint8

const (
	pricingAuto    pricingRule = iota // selectDevex decides from the LP's shape
	pricingDevex                      // Devex, whatever the shape
	pricingDantzig                    // partial Dantzig, whatever the shape
)

// scanKind names the scan that serves a partial Dantzig pricing call.
type scanKind uint8

const (
	scanAuto    scanKind = iota // tuning only: the scan rule picks
	scanPlain                   // every reduced cost from the duals
	scanCached                  // the candidate index over the synced cache
	scanBounded                 // the block bounds of a cold solve
)

// tuning holds the solver's internal knobs. In every field the zero value
// selects the package default, which resolve fills in.
type tuning struct {
	// maxIter bounds the number of pivots; the default is
	// 20000 + 200·(m+n), n counting live columns only.
	maxIter int
	// refactorEvery rebuilds the LU factorization after this many pivots,
	// discarding accumulated round-off; the default is 128.
	refactorEvery int
	pricing       pricingRule
	// scan forces the scan of every partial Dantzig and Bland call the
	// scan rule would pick for (scanPlain or scanCached); the default,
	// scanAuto, lets the rule pick. Block bounds still serve the cold calls
	// they cover.
	scan scanKind
	// pricingWindow is the number of variables scanned per iteration under
	// partial Dantzig pricing before falling back to a full pass; only live
	// variables count. The default is 4096.
	pricingWindow int
	// repairBudget bounds the dual-repair pivots per attempt before a
	// partial-warm cutover (and, on the second exhaustion, the cold
	// fallback). Solver.Resolve sizes the default from the delta (see there).
	repairBudget int
	// hypersparseThreshold is the symbolic-reach density (fraction of m) at
	// which the hypersparse triangular kernels give up and defer to the
	// dense sweeps; the default is defaultHypersparseThreshold. It only
	// moves work between bit-equal kernels.
	hypersparseThreshold float64
	// parallelThreshold is the variable count (n+m) from which the pooled
	// Devex passes (the reduced-cost refresh, the dense-pivot-row update
	// and the rescan of many dirty pricing blocks) run on the worker pool;
	// the default is devexParallelThreshold. The sparse-pivot-row update
	// and the dual-repair pricing stay sequential.
	parallelThreshold int
	// noPerturb disables the anti-degeneracy RHS perturbation.
	//
	// The benchmark LP is massively degenerate (thousands of identical
	// user rows with b=1). The solver perturbs each b_i > 0 by a
	// deterministic pseudo-random δ_i ∈ (0.5, 1]·perturbScale·(1+b_i)
	// before solving, so ties in the ratio test break consistently and
	// degenerate vertices are left in real steps. Zero rows are never
	// perturbed (a zero capacity must stay hard). The returned solution is
	// feasible for the perturbed problem, hence feasible for the original
	// within 2·10⁻⁷ relative per row; Verify's tolerances absorb it.
	noPerturb bool
}

// resolve returns t with every default but repairBudget's filled in for an
// m-row problem with n live columns, the pricing rule included.
func (t tuning) resolve(m, n int) tuning {
	if t.maxIter <= 0 {
		t.maxIter = 20000 + 200*(m+n)
	}
	if t.refactorEvery <= 0 {
		t.refactorEvery = 128
	}
	if t.pricing == pricingAuto {
		t.pricing = pricingDantzig
		if selectDevex(m, n) {
			t.pricing = pricingDevex
		}
	}
	if t.pricingWindow <= 0 {
		t.pricingWindow = 4096
	}
	if t.hypersparseThreshold <= 0 {
		t.hypersparseThreshold = defaultHypersparseThreshold
	}
	if t.parallelThreshold <= 0 {
		t.parallelThreshold = devexParallelThreshold
	}
	return t
}

// DevexColumnLimit is the problem width beyond which auto pricing falls back
// from Devex to partial Dantzig: each refactorization re-prices every column
// for Devex, and so does every pivot whose row is dense, which dominates on
// very wide LPs (e.g. the paper-scale Meetup workload's 3,570,714 columns)
// that Dantzig already solves in few iterations.
const DevexColumnLimit = 300_000

// DevexRowThreshold is the row count above which auto pricing prefers Devex
// over partial Dantzig (see selectDevex).
const DevexRowThreshold = 3000

// devexParallelThreshold is the variable count (n+m) below which the Devex
// passes stay on the calling goroutine: under it the per-pivot work is too
// small to amortize handing chunks to the pool.
const devexParallelThreshold = 16384

// devexGrain is the minimum column-range chunk handed to a pricing worker.
const devexGrain = 4096

// devexBlock is the width, in variables, of one Devex pricing block: the
// unit whose best candidate priceDevex caches and whose rescan an update
// triggers by writing any variable in it.
const devexBlock = 256

// blockDirty marks a pricing block whose cached best is stale.
const blockDirty = -2

const (
	pivotTol   = 1e-9 // minimum magnitude for a ratio-test pivot element
	reducedTol = 1e-9 // optimality tolerance on reduced costs
	// stallLimit is the number of consecutive degenerate (zero-step) pivots
	// tolerated under Dantzig pricing before switching to Bland's rule,
	// which guarantees termination.
	stallLimit = 256
)

// perturbScale is the relative magnitude of the anti-degeneracy
// perturbation.
const perturbScale = 2e-7

// perturbDelta returns the deterministic perturbation for row i.
func perturbDelta(i int, b float64) float64 {
	z := uint64(i)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	u := 0.5 + 0.5*float64(z>>11)/(1<<53) // (0.5, 1]
	return perturbScale * (1 + b) * u
}

// eta is one product-form update: the pivot that replaced basic position r,
// described by the FTRAN'd entering column d. Its off-diagonal entries live
// in the state's shared eta arena at [lo, hi); the diagonal element dr is
// stored separately. Keeping the entries in one growable arena (reset at
// each refactorization) instead of per-eta slices removes two heap
// allocations per pivot.
type eta struct {
	r      int
	lo, hi int32
	dr     float64
}

// trivialSolution handles the m == 0 degenerate case shared by the cold and
// warm entry points: x = 0 is optimal unless some c_j > 0.
func trivialSolution(p *Problem) (*Solution, bool) {
	if p.NumRows != 0 {
		return nil, false
	}
	for _, c := range p.C {
		if c > reducedTol {
			return &Solution{Status: Unbounded}, true
		}
	}
	return &Solution{Status: Optimal, X: make([]float64, p.NumCols()), Y: nil, Objective: 0}, true
}

// solutionErr maps a terminal non-optimal status to its sentinel error.
func solutionErr(sol *Solution) error {
	switch sol.Status {
	case Unbounded:
		return ErrUnbounded
	case IterLimit:
		return ErrIterLimit
	}
	return nil
}

// selectDevex is the auto pricing rule for an m×n problem, n counting live
// columns only: Devex above DevexRowThreshold rows and within
// DevexColumnLimit variables, partial Dantzig otherwise.
//
// The row threshold was measured on the Table I workloads with a Devex
// update that priced every column on every pivot (DESIGN.md §3): Dantzig won
// below ~3000 rows (|U|=2000 defaults: 0.9s vs 2.5s); beyond that the
// degenerate churn explodes under Dantzig (|U|=4000: 96k pivots vs 19k) and
// Devex wins several-fold. The row-scatter update moves that crossover;
// DESIGN.md §3 records the re-measurement the threshold waits on. On very
// wide problems (paper-scale Meetup: 3,570,714 columns) the re-pricing of
// every column at each refactorization dominates, so Dantzig with a pricing
// window is used.
func selectDevex(m, n int) bool {
	return m > DevexRowThreshold && n+m <= DevexColumnLimit
}

// configure binds the config-derived per-solve state — the worker-pool
// bound, the hypersparse reach cap and the phase-timer sink — and returns
// the tuning resolved for st's problem. Shared by the pivot loop and
// Solver.Resolve's dual-repair prologue, which runs before pivot and must
// see the same pool — a repair on stale workers would take different (still
// correct, but not the configured) parallel paths.
func (s *Revised) configure(st *revisedState) tuning {
	t := s.tuning.resolve(st.m, st.live())
	st.timers = s.Timers
	st.workers = par.Workers(s.Workers)
	if st.workers > 1 && st.live()+st.m < t.parallelThreshold {
		st.workers = 1
	}
	st.hyperCap = int(t.hypersparseThreshold * float64(st.m))
	return t
}

// dualState says how st.y relates to the current basis under partial
// Dantzig pricing.
type dualState uint8

const (
	dualStale   dualState = iota // y belongs to an earlier basis: btran before pricing
	dualExact                    // y = B⁻ᵀc_B from a full btran on this basis
	dualUpdated                  // y kept by y += γβ since the last full btran
)

// pivot runs the simplex loop from st's current basis, which must already be
// factorized and primal feasible. With warm == false the Devex reference
// framework is reset (the cold, all-slack start); with warm == true any
// reference weights carried in st.weights survive, so a re-solve keeps the
// pricing memory of the previous optimum. Warm or cold, each Dantzig and
// Bland pricing call reads the reduced-cost cache (syncRed) or recomputes
// every column as the scan rule picks (cacheWins), except that a cold solve
// whose blocks keep dual bounds prices through them and builds no cache.
//
// Under partial Dantzig pricing the duals are kept the textbook way, as
// dualRepair keeps them: before the basis change the pivot computes
// β = B⁻ᵀe_r, the leaving row of the basis inverse, and after it steps
// y += γβ with γ = red_q/d_r, which makes the entering column's reduced cost
// zero and leaves every other basic column's at zero. The step touches only
// β's support, so the reduced-cost cache recomputes only the columns on
// those rows. A full btran runs only where y is stale — at entry,
// after each refactorization and after a Bland pivot, whose rule keeps its
// exact per-pivot btran — and as the optimality certificate: a scan that
// finds no entering column on updated duals recomputes them exactly and
// prices again wherever that can move the verdict (recertify), so extract
// always reads duals computed from the final basis.
// Devex keeps its own reduced costs and refreshes them exactly the same way.
func (s *Revised) pivot(st *revisedState, warm bool) (*Solution, error) {
	t := s.configure(st)
	m := st.m
	devex := t.pricing == pricingDevex
	var bounds *priceBounds
	switch {
	case devex:
		st.initDevex(warm)
	case !warm && st.dead == 0:
		t0 := tick(st.timers)
		bounds = newPriceBounds(st)
		st.timers.add(phPricing, t0)
	}
	ruled := !devex && bounds == nil
	if ruled {
		st.buildARows() // stepDuals sizes each dual step through it
	}

	iters := 0
	degenerate := 0
	bland := false
	cursor := 0
	dual := dualStale
	// beforeRefresh runs where updated duals are about to be replaced.
	beforeRefresh := func() {
		if dual == dualUpdated && dualHook != nil {
			dualHook(st)
		}
	}
	// cached says the last pricing call read the cache; recertify follows
	// that call's scan.
	cached := false
	price := func() int {
		from := cursor
		cached = ruled && st.cacheWins(t.scan)
		q, next := st.pricePartial(cursor, t.pricingWindow, cached, bounds)
		cursor = next
		if ruled {
			st.noteScan(cached)
		}
		if pricingHook != nil {
			scan := scanBounded
			switch {
			case cached:
				scan = scanCached
			case ruled:
				scan = scanPlain
			}
			pricingHook(st, bounds, scan, warm, from, t.pricingWindow, q, next)
		}
		return q
	}
	for ; iters < t.maxIter; iters++ {
		var q int
		switch {
		case bland:
			st.btran()
			q = st.priceBland(ruled && st.cacheWins(t.scan))
		case devex:
			q = st.priceDevex()
			if q < 0 {
				// Apparent optimality on incrementally updated reduced
				// costs: refresh exactly and re-check before declaring.
				st.refreshReducedCosts()
				q = st.priceDevex()
			}
		default:
			if dual == dualStale {
				st.btran()
				dual = dualExact
			}
			q = price()
			if q < 0 && dual == dualUpdated {
				// Apparent optimality on updated duals: recompute them
				// exactly and price again wherever that can move the verdict.
				beforeRefresh()
				if st.recertify(cached) {
					q = price()
				}
				dual = dualExact
			}
		}
		if q < 0 {
			// y is exact: every branch above ends with duals computed from
			// the current basis by a full btran (Devex through
			// refreshReducedCosts).
			return st.extract(iters), nil
		}

		st.ftran(q) // d = B⁻¹ a_q

		// Ratio test.
		r := -1
		var theta float64
		for i := 0; i < m; i++ {
			a := st.d[i]
			if a <= pivotTol {
				continue
			}
			ratio := st.xB[i] / a
			switch {
			case r < 0 || ratio < theta-pivotTol:
				r, theta = i, ratio
			case ratio <= theta+pivotTol:
				if bland {
					if st.basis[i] < st.basis[r] {
						r, theta = i, ratio
					}
				} else if a > st.d[r] {
					r, theta = i, ratio
				}
			}
		}
		if r < 0 {
			return &Solution{Status: Unbounded, Iterations: iters}, ErrUnbounded
		}
		if theta <= pivotTol {
			degenerate++
			if degenerate >= stallLimit {
				bland = true
			}
		} else {
			degenerate = 0
			bland = false
		}
		// The duals step with this pivot when the next pricing is Dantzig's;
		// Bland recomputes them anyway, and Devex keeps its own reduced costs.
		var gamma float64
		step := !devex && !bland
		if step {
			gamma = st.reducedCost(q) / st.d[r]
			st.btranUnit(r)
		} else {
			beforeRefresh()
		}
		if devex {
			st.updateDevex(q, r)
		}

		// Apply the pivot.
		for i := 0; i < m; i++ {
			if v := st.d[i]; v != 0 {
				st.xB[i] -= theta * v
				if st.xB[i] < 0 && st.xB[i] > -1e-11 {
					st.xB[i] = 0
				}
			}
		}
		st.xB[r] = theta
		leaving := st.basis[r]
		st.posOf[leaving] = -1
		bounds.invalidate(leaving)
		st.basis[r] = q
		st.posOf[q] = r
		st.cB[r] = st.objCoef(q)
		st.pushEta(r)
		st.timers.pivotDone()
		dual = dualStale
		if step {
			st.stepDuals(gamma)
			dual = dualUpdated
		}

		if len(st.etas) >= t.refactorEvery {
			beforeRefresh()
			if err := st.refactorize(); err != nil {
				return nil, err
			}
			dual = dualStale
			if devex {
				st.refreshReducedCosts()
			}
		}
	}
	return &Solution{Status: IterLimit, Iterations: iters}, ErrIterLimit
}

// revisedState carries the mutable solver state; it exists so the pivot
// loop above reads top-down without a dozen captured locals.
type revisedState struct {
	p       *Problem
	m, n    int // rows and structural slots; slack i is variable n+i
	dead    int // tombstoned slots among the n (see Solver)
	workers int
	b       []float64 // right-hand side, possibly perturbed

	basis []int     // basis position -> variable index
	posOf []int     // variable index -> basis position, -1 (nonbasic) or deadSlot
	xB    []float64 // values of basic variables
	cB    []float64 // objective coefficients of basic variables

	lu        *luFactors
	basisCols []spCol // views of the current basis columns (refactorize)

	etas   []eta
	etaIdx []int32 // shared eta arena (see eta)
	etaVal []float64

	y    []float64 // dual prices, original-row space
	d    []float64 // FTRAN result, basis-position space
	beta []float64 // BTRAN of the leaving unit vector (pivot row, dual step)
	work []float64 // scratch for LU solves
	// yExact says y equals, bit for bit, what btran computes from the
	// current LU, eta file and c_B, so btran can return at once. btran sets
	// it; pushEta, refactorize, stepDuals and rebind clear it, and so does
	// recomputeXB when it changes a bit of c_B. It carries exact duals
	// across Solver.Resolve calls that leave the basis and c_B alone.
	yExact bool

	// Maintained reduced costs for every variable (structural and slack),
	// shared by Devex pricing and the dual repair, each of which refills
	// them exactly before its first read (initDevex, refreshDualRed), plus
	// the Devex reference weights.
	rvec    []float64
	weights []float64
	scratch []float64 // second zeroed work vector (btranUnit)

	// Devex pricing cache, one entry per devexBlock variables: the block's
	// first strict maximum of r²/w (index, score; -1 and 0 when it has no
	// candidate), or blockDirty when a write since the last pricing left it
	// stale. dirtyBlocks lists the stale blocks in marking order.
	blockBest   []int32
	blockScore  []float64
	dirtyBlocks []int32

	// dual-repair state: steepest-edge row norms (positional, reset to the
	// unit reference framework at repair entry and on mid-repair
	// refactorization).
	dseW []float64
	// Pivot-row scratch (pivotRow): alphaVec holds α = βᵀA. A sparse β
	// fills it over the candidate column set candList only
	// (scatterPivotRow, epoch-stamped via candStamp, so no O(n) clearing
	// between pivots; syncRed reuses the stamps); a dense β (candDense)
	// fills every entry.
	alphaVec  []float64
	candStamp []int32
	candEpoch int32
	candList  []int32
	candDense bool

	// Row-major mirror of the structural matrix A (row → columns with a 1
	// there), built lazily by buildARows for the pivot-row scatter: row r is
	// aRowIdx[aRowPtr[r]:aRowPtr[r+1]] over the slots the build saw, then
	// aTail[r], the columns Solver.Resolve appended since (appendARows).
	// Tombstones stay listed, so readers skip them. Within a row, columns
	// ascend. rebind and compaction invalidate it.
	aRowPtr, aRowIdx []int32
	aRowCur          []int32
	aTail            [][]int32
	aRowsOK          bool

	// Reduced-cost cache: redC[j] = c_j − yᵀa_j for every variable, basic,
	// nonbasic and slack, computed against the duals yRef, and valid while
	// redOK. redDirty lists columns whose c_j changed since (Solver.Resolve
	// queues SetC targets and appended columns). syncRed brings the cache
	// to the current y, however many dual steps it missed. rebind
	// invalidates it; a solve builds it when the scan rule first picks it.
	redC     []float64
	yRef     []float64
	redDirty []int32
	redOK    bool
	// redMoved lists the variables the last sync of a valid cache
	// recomputed, and yPrev holds the duals across the btran of a
	// recertification after a plain scan.
	redMoved []int32
	yPrev    []float64
	// Candidate index beside the cache (priceIndexed): bit j of redPos
	// is set exactly when redC[j] > reducedTol, bit j of tombs exactly when
	// slot j is a tombstone, and no bit at or past n+m is set. Valid while
	// redOK and idxOK. syncRed keeps redPos with every entry it recomputes
	// and rebuilds both after a full pass or an invalidation; patchState
	// keeps both across a delta; rebind and remapState invalidate them.
	redPos, tombs []uint64
	idxOK         bool

	// The scan rule's state (cacheWins, noteScan), in variables. stepWork
	// is Σ(|row r| + 1) over the support of the dual steps since the last
	// partial Dantzig call, an upper bound on what a synced cache would
	// recompute for them. cacheCost and plainCost are running means of what each call
	// cost, or would have cost, through a synced cache and through the
	// plain scan; plainCost is 0 before the first call. lastRead,
	// lastSkipped and lastImproving are the last partial Dantzig call's
	// counts: what it read and skipped, whichever scan served it, and, on
	// the plain scan, how many variables it read were improving. rebind
	// zeroes the means, and a warm re-solve starts from where the last solve
	// on the state left them.
	stepWork, cacheCost, plainCost       int
	lastRead, lastSkipped, lastImproving int

	// dualGamma is the dual step length γ = red_q/α_q of the last priceDual
	// winner, used for the incremental dual update y' = y + γβ.
	dualGamma float64

	// Hypersparse solve state: hyperCap is the reach cap in steps
	// (hypersparseThreshold · m, set by configure; 0 disables), hyper the
	// reusable symbolic scratch, hyperSeeds the RHS-pattern buffer for
	// btranUnit. When the last btranUnit was served by the sparse kernel,
	// betaSupportOK is true and betaSupport lists the original-row indices of
	// st.beta's nonzeros — the key that unlocks reach-pruned dual pricing.
	hyper         hyperReach
	hyperCap      int
	hyperSeeds    []int32
	betaSupport   []int32
	betaSupportOK bool

	timers *PhaseTimers // nil unless the config requests phase profiling

	// refactors counts LU rebuilds on this state since it was acquired —
	// the observability counter behind SolverStats.Refactorizations. Reset
	// by acquireState so a recycled arena never carries a previous solver's
	// count.
	refactors int64

	rowSeq []int32 // rowSeq[i] = i: slack column indices and full-rhs rows
	// ones is all ones, len m: the values of every column handed to the LU
	// kernel, slack or structural. A column lists each row at most once, so
	// no column is longer than m.
	ones []float64

	// xOut, yOut back the returned Solution's X and Y. They are reused
	// across solves on the same state, so a persistent Solver's steady-state
	// Resolve allocates nothing but the Solution header; see the aliasing
	// contract on Solver. xSet lists, ascending, the basic structurals the
	// last extract wrote to xOut; while xSetOK every other entry of xOut is
	// zero, so the next extract clears just those. xMark is extract's bitmap
	// scratch, all zero between calls.
	xOut, yOut []float64
	xSet       []int32
	xSetOK     bool
	xMark      []uint64
}

// deadSlot marks a tombstone in posOf: a removed column whose slot a Solver
// keeps until compaction. It is never basic, never priced and never counted.
const deadSlot = -2

// live returns the number of live structural columns.
func (st *revisedState) live() int { return st.n - st.dead }

func newRevisedState(p *Problem, perturb bool) *revisedState {
	st := &revisedState{lu: &luFactors{}}
	st.rebind(p, perturb)
	return st
}

// resize reslices s to length n, allocating only when the capacity is too
// small. It grows through slices.Grow, whose amortized growth lets a warm
// Solver's per-slot arrays follow its appended columns (see growSlots)
// without reallocating on every delta; a first allocation is exact. Contents
// are unspecified; callers overwrite what they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s[:0], n)
	}
	return s[:n]
}

// rebind points the state at problem p and resets it to the all-slack basis,
// reusing every backing array whose capacity suffices — the cold-start path
// of a pooled or persistent solver allocates nothing in steady state. The
// warm path (Solver.Resolve) instead patches basis, posOf and weights in
// place and never calls rebind.
func (st *revisedState) rebind(p *Problem, perturb bool) {
	m, n := p.NumRows, p.NumCols()
	st.p, st.m, st.n, st.dead = p, m, n, 0
	st.workers = 1
	st.xSetOK = false
	st.betaSupportOK = false
	st.aRowsOK = false
	st.redOK = false
	st.idxOK = false
	st.yExact = false
	st.redDirty = st.redDirty[:0]
	st.stepWork, st.cacheCost, st.plainCost = 0, 0, 0
	st.loadRHS(perturb)
	st.basis = resize(st.basis, m)
	st.posOf = resize(st.posOf, n+m)
	st.xB = resize(st.xB, m)
	st.cB = resize(st.cB, m)
	st.y = resize(st.y, m)
	st.d = resize(st.d, m)
	st.work = resize(st.work, m)
	for i := range st.work {
		st.work[i] = 0 // the LU solves require (and preserve) zeroed scratch
	}
	if st.scratch != nil {
		st.scratch = resize(st.scratch, m)
		for i := range st.scratch {
			st.scratch[i] = 0
		}
	}
	if st.beta != nil {
		st.beta = resize(st.beta, m)
	}
	st.rowSeq = st.rowSeq[:0]
	st.ones = st.ones[:0]
	for i := 0; i < m; i++ {
		st.rowSeq = append(st.rowSeq, int32(i))
		st.ones = append(st.ones, 1)
	}
	st.etas = st.etas[:0]
	st.etaIdx = st.etaIdx[:0]
	st.etaVal = st.etaVal[:0]
	st.basisCols = st.basisCols[:0]
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	for i := 0; i < m; i++ {
		st.basis[i] = n + i
		st.posOf[n+i] = i
		st.xB[i] = st.b[i]
	}
}

// loadRHS refreshes st.b from the problem's right-hand side, applying the
// deterministic anti-degeneracy perturbation. The perturbation depends only
// on (row, bound), so a warm re-solve after a bound delta works on exactly
// the rhs a cold solve of the changed problem would see.
func (st *revisedState) loadRHS(perturb bool) {
	st.b = resize(st.b, st.m)
	copy(st.b, st.p.B)
	if perturb {
		for i := range st.b {
			if st.b[i] > 0 {
				st.b[i] += perturbDelta(i, st.b[i])
			}
		}
	}
}

func (st *revisedState) objCoef(v int) float64 {
	if v < st.n {
		return st.p.C[v]
	}
	return 0
}

// columnOf returns the sparse constraint column of variable v as views —
// its rows into the problem's CSC array for a structural column or into
// rowSeq for a unit slack column, its values into the shared all-ones
// vector. Never a copy.
func (st *revisedState) columnOf(v int) ([]int32, []float64) {
	if v < st.n {
		rows := st.p.Col(v)
		return rows, st.ones[:len(rows)]
	}
	i := v - st.n
	return st.rowSeq[i : i+1], st.ones[i : i+1]
}

// refactorize rebuilds the LU factorization of the current basis, clears the
// eta file, and recomputes x_B = B⁻¹b to shed accumulated round-off.
func (st *revisedState) refactorize() error {
	if cap(st.basisCols) < st.m {
		st.basisCols = make([]spCol, st.m)
	} else {
		st.basisCols = st.basisCols[:st.m]
	}
	for i, v := range st.basis {
		rows, vals := st.columnOf(v)
		st.basisCols[i] = spCol{rows: rows, vals: vals}
	}
	t0 := tick(st.timers)
	if err := st.lu.factorize(st.m, st.basisCols); err != nil {
		return err
	}
	st.etas = st.etas[:0]
	st.etaIdx = st.etaIdx[:0]
	st.etaVal = st.etaVal[:0]
	st.yExact = false
	st.solveB(st.rowSeq, st.b, st.xB)
	for i := range st.xB {
		if st.xB[i] < 0 && st.xB[i] > -1e-9 {
			st.xB[i] = 0
		}
		st.cB[i] = st.objCoef(st.basis[i])
	}
	st.timers.add(phFactor, t0)
	st.refactors++
	return nil
}

// defaultHypersparseThreshold is the reach-cap density (fraction of m)
// unless a test tunes it. Warm-resolve FTRANs and repair-pivot
// BTRANs on the benchmark bases reach a few dozen steps out of thousands;
// 10% leaves generous headroom while keeping the abandoned-DFS cost of a
// genuinely dense solve at a tenth of the dense sweep it falls back to.
const defaultHypersparseThreshold = 0.1

// solveB routes d = B⁻¹a: a right-hand side sparse enough to fit the
// hypersparse reach cap tries the symbolic-reach kernel first, else the
// sequential solve. Both are bit-identical by construction (see the
// hypersparse.go preamble), so crossing the threshold never changes a pivot
// sequence.
func (st *revisedState) solveB(rows []int32, vals []float64, out []float64) {
	if len(rows) <= st.hyperCap {
		if st.lu.solveBHyper(&st.hyper, rows, vals, out, st.work, st.hyperCap) {
			st.timers.hypersparseFtran()
			return
		}
	}
	st.lu.solveB(rows, vals, out, st.work)
}

// recomputeXB refreshes x_B = B⁻¹b and c_B through the existing
// factorization and eta file, without rebuilding the LU. Valid whenever
// every basis change since the last factorize went through pushEta — which
// Solver.Resolve guarantees (substituted removals are product-form updates)
// — so a small-delta re-solve skips the O(m·nnz) refactorization entirely.
// The round-off hygiene matches refactorize: tiny negative basics clamp to
// zero. Exact duals stay exact unless a bit of c_B changed.
func (st *revisedState) recomputeXB() {
	st.solveB(st.rowSeq, st.b, st.d)
	for _, e := range st.etas {
		xr := st.d[e.r] / e.dr
		st.d[e.r] = xr
		if xr != 0 {
			idx := st.etaIdx[e.lo:e.hi]
			val := st.etaVal[e.lo:e.hi]
			for i, s := range idx {
				st.d[s] -= val[i] * xr
			}
		}
	}
	copy(st.xB, st.d)
	for i := range st.xB {
		if st.xB[i] < 0 && st.xB[i] > -1e-9 {
			st.xB[i] = 0
		}
		c := st.objCoef(st.basis[i])
		if math.Float64bits(c) != math.Float64bits(st.cB[i]) {
			st.yExact = false
		}
		st.cB[i] = c
	}
}

// ftran computes d = B⁻¹ a_q into st.d.
func (st *revisedState) ftran(q int) {
	t0 := tick(st.timers)
	rows, vals := st.columnOf(q)
	st.solveB(rows, vals, st.d)
	for _, e := range st.etas {
		xr := st.d[e.r] / e.dr
		st.d[e.r] = xr
		if xr != 0 {
			idx := st.etaIdx[e.lo:e.hi]
			val := st.etaVal[e.lo:e.hi]
			for i, s := range idx {
				st.d[s] -= val[i] * xr
			}
		}
	}
	st.timers.add(phFtran, t0)
}

// btran computes y = B⁻ᵀ c_B into st.y. When y is already exact (yExact)
// it returns at once: the solve is a pure function of the LU, the eta file
// and c_B, none of which changed, so it would write the same bits.
func (st *revisedState) btran() {
	if st.yExact {
		st.timers.btranSkipped()
		if btranHook != nil {
			btranHook(st)
		}
		return
	}
	t0 := tick(st.timers)
	z := st.d // reuse as scratch; overwritten by the next ftran
	copy(z, st.cB)
	st.applyEtasT(z)
	st.lu.solveBT(z, st.y, st.work)
	st.yExact = true
	st.timers.add(phBtran, t0)
}

// btranUnit computes β = B⁻ᵀ e_r (row r of the basis inverse) into st.beta.
// After the transposed eta sweep the right-hand side can be nonzero only at r
// and at the eta pivot positions, and the reach is seeded at r plus those of
// them that are nonzero: a zero entry seeds nothing but zeros, so skipping it
// leaves every nonzero of β bit-identical while keeping the reach to what the
// unit vector actually touches. With a short reach the solve is served by
// the hypersparse kernel, which also exports β's nonzero pattern into
// st.betaSupport for the reach-pruned dual pricing pass and the incremental
// dual update.
func (st *revisedState) btranUnit(r int) {
	t0 := tick(st.timers)
	if st.beta == nil {
		st.beta = make([]float64, st.m)
	}
	z := st.work2()
	z[r] = 1
	st.applyEtasT(z)
	st.betaSupportOK = false
	seeds := append(st.hyperSeeds[:0], int32(r))
	for i := range st.etas {
		if p := st.etas[i].r; p != r && z[p] != 0 {
			seeds = append(seeds, int32(p))
		}
	}
	st.hyperSeeds = seeds
	if len(seeds) <= st.hyperCap {
		st.betaSupport = st.betaSupport[:0]
		if st.lu.solveBTHyper(&st.hyper, z, st.beta, st.work, seeds, &st.betaSupport, st.hyperCap) {
			st.betaSupportOK = true
			st.timers.hypersparseBtran()
		}
	}
	if !st.betaSupportOK {
		st.lu.solveBT(z, st.beta, st.work)
	}
	// only r and the eta pivot positions were written, zeros included
	z[r] = 0
	for i := range st.etas {
		z[st.etas[i].r] = 0
	}
	st.timers.add(phBtran, t0)
}

// recertify recomputes the duals exactly after a partial Dantzig pass found
// no entering column on incrementally updated ones, and reports whether a
// second pass must decide optimality. It need not when no reduced cost the
// pass read can have moved: a plain (or bounded) pass computed each from y,
// so y must be unchanged bit for bit; a cached pass read the synced
// reduced-cost cache, which syncs again here, so none of the variables the
// sync recomputed may be improving. Either way the skipped pass would find
// no entering column and end where the first one did, so skipping it moves
// nothing. cached names the pass's scan; the second pass picks its own.
func (st *revisedState) recertify(cached bool) bool {
	if cached {
		st.btran()
		st.syncRed()
		t0 := tick(st.timers)
		defer st.timers.add(phPricing, t0)
		for k, j := range st.redMoved {
			if st.posOf[j] == -1 && st.redC[j] > reducedTol {
				st.timers.read(k + 1)
				return true
			}
		}
		st.timers.read(len(st.redMoved))
		return false
	}
	st.yPrev = append(st.yPrev[:0], st.y...)
	st.btran()
	for i, v := range st.yPrev {
		if math.Float64bits(v) != math.Float64bits(st.y[i]) {
			return true
		}
	}
	return false
}

// stepDuals takes the dual step y += γβ of a pivot whose leaving row
// st.beta holds, over β's nonzeros only: the support list when the
// hypersparse kernel produced β, else a sweep. Each entry's update is
// independent, so both give the same bits. With the row mirror built, it
// also sizes the step for the scan rule: Σ(|row r| + 1) over the rows it
// walked goes into stepWork, whichever scan prices next. Timed as the
// pivot's update.
func (st *revisedState) stepDuals(gamma float64) {
	t0 := tick(st.timers)
	st.yExact = false
	y, beta := st.y, st.beta
	sized, work := st.aRowsOK, 0
	if st.betaSupportOK {
		for _, i := range st.betaSupport {
			y[i] += gamma * beta[i]
			if sized {
				work += st.rowLen(int(i)) + 1
			}
		}
	} else {
		for i, v := range beta {
			if v != 0 {
				y[i] += gamma * v
				if sized {
					work += st.rowLen(i) + 1
				}
			}
		}
	}
	st.stepWork += work
	st.timers.add(phUpdate, t0)
}

// cacheWins is the scan rule: whether the next partial Dantzig or Bland
// call reads the reduced-cost cache. It takes the cache when a synced
// cache has cost less per call than the plain scan, on the running means
// noteScan keeps; before the first call there is nothing to compare, and
// the plain scan runs. The counts depend only on the pivots, never on a
// clock or the worker count, so the choice is deterministic, and every scan
// returns the plain scan's (q, next) anyway. force, tuning's scan,
// overrides the rule.
func (st *revisedState) cacheWins(force scanKind) bool {
	switch force {
	case scanPlain:
		return false
	case scanCached:
		return true
	}
	return st.plainCost > 0 && st.cacheCost < st.plainCost
}

// ruleShift sets the weight of the latest call in the scan rule's running
// means to 2⁻⁴. The per-step sync work is bimodal on the synthetic LPs
// (Table I |U| = 2000: quartiles of ~600, ~13,600 and ~40,000 variables
// against a plain scan of ~4,100), so the last step alone would flip the
// scan every other call, and each flip back to the cache pays a catch-up.
const ruleShift = 4

// noteScan feeds the scan rule the partial Dantzig call just made, which
// the plain scan (cached false) or the cache served. Either scan knows what
// both would have cost: a cached call read the candidates and skipped the
// rest of the plain scan's count, and a plain call's improving variables
// are exactly the candidates the index would have read. Through a synced
// cache the call costs the dual steps before it, stepWork, plus those
// candidate reads.
func (st *revisedState) noteScan(cached bool) {
	index, plain := st.lastImproving, st.lastRead
	if cached {
		index, plain = st.lastRead, st.lastRead+st.lastSkipped
	}
	cache := st.stepWork + index
	st.stepWork = 0
	if st.plainCost == 0 {
		st.cacheCost, st.plainCost = cache, plain
		return
	}
	st.cacheCost += (cache - st.cacheCost) >> ruleShift
	st.plainCost += (plain - st.plainCost) >> ruleShift
}

// scanned records a partial Dantzig call's counts: as the state's
// lastRead and lastSkipped, and into the phase timers under kind.
func (st *revisedState) scanned(kind scanKind, read, skipped int) {
	st.lastRead, st.lastSkipped = read, skipped
	st.timers.scanned(kind, read, skipped)
}

// work2 returns a second zeroed scratch vector of length m.
func (st *revisedState) work2() []float64 {
	if st.scratch == nil {
		st.scratch = make([]float64, st.m)
	}
	return st.scratch
}

// applyEtasT applies the transposed eta file in reverse order (the BTRAN
// half of the product-form update).
func (st *revisedState) applyEtasT(z []float64) {
	for k := len(st.etas) - 1; k >= 0; k-- {
		e := &st.etas[k]
		idx := st.etaIdx[e.lo:e.hi]
		val := st.etaVal[e.lo:e.hi]
		sum := 0.0
		for i, s := range idx {
			sum += val[i] * z[s]
		}
		z[e.r] = (z[e.r] - sum) / e.dr
	}
}

// pushEta records the current FTRAN vector st.d as the eta for a pivot at
// basic position r, appending its entries to the shared arena.
func (st *revisedState) pushEta(r int) {
	st.yExact = false
	lo := int32(len(st.etaIdx))
	for i, v := range st.d {
		if i != r && (v > 1e-13 || v < -1e-13) {
			st.etaIdx = append(st.etaIdx, int32(i))
			st.etaVal = append(st.etaVal, v)
		}
	}
	st.etas = append(st.etas, eta{r: r, lo: lo, hi: int32(len(st.etaIdx)), dr: st.d[r]})
}

// reducedCost returns c_q − yᵀ a_q for variable q under the current duals.
func (st *revisedState) reducedCost(q int) float64 {
	if q < st.n {
		red := st.p.C[q]
		for _, r := range st.p.Col(q) {
			red -= st.y[r]
		}
		return red
	}
	return -st.y[q-st.n]
}

// --- Devex pricing -------------------------------------------------------

// initDevex sizes and fills the Devex state: exact reduced costs for every
// variable, plus reference weights. A cold start (warm == false) zeroes the
// weights so refreshReducedCosts resets them to the unit reference framework
// — bit-identical to a fresh state. A warm start keeps whatever weights the
// caller carried over (Solver.Resolve carries the previous solve's weights
// across the delta), preserving the pricing memory of the previous optimum.
func (st *revisedState) initDevex(warm bool) {
	total := st.n + st.m
	st.rvec = resize(st.rvec, total)
	if !warm || len(st.weights) != total {
		st.weights = resize(st.weights, total)
		for i := range st.weights {
			st.weights[i] = 0
		}
	}
	st.refreshReducedCosts()
}

// refreshReducedCosts recomputes st.rvec exactly from the current duals.
// Basic variables and tombstones get 0, so neither is ever a candidate.
// The Devex reference weights are reset only when they have grown extreme
// (a fresh reference framework); resetting them on every refactorization
// would degrade Devex to Dantzig. A tombstone's weight is 0 from its
// removal to the next reset and 1 after, never above a live weight, so the
// maximum is the one over live variables.
func (st *revisedState) refreshReducedCosts() {
	st.btran()
	maxW := 0.0
	for _, w := range st.weights {
		if w > maxW {
			maxW = w
		}
	}
	reset := maxW > 1e8 || maxW == 0
	t0 := tick(st.timers)
	par.Ranges(st.workers, st.n+st.m, devexGrain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if st.posOf[j] != -1 {
				st.rvec[j] = 0
			} else {
				st.rvec[j] = st.reducedCost(j)
			}
			if reset {
				st.weights[j] = 1
			}
		}
	})
	st.markAllDirty()
	st.timers.add(phPricing, t0)
}

// markAllDirty sizes the pricing-block cache for the current variable count
// and marks every block stale: the write pattern of a pass over all
// variables (refreshReducedCosts, a dense-pivot-row update).
func (st *revisedState) markAllDirty() {
	nb := (st.n + st.m + devexBlock - 1) / devexBlock
	st.blockBest = resize(st.blockBest, nb)
	st.blockScore = resize(st.blockScore, nb)
	st.dirtyBlocks = st.dirtyBlocks[:0]
	for b := 0; b < nb; b++ {
		st.blockBest[b] = blockDirty
		st.dirtyBlocks = append(st.dirtyBlocks, int32(b))
	}
}

// markDirty marks the pricing block holding variable j stale after a write
// to its reduced cost or weight.
func (st *revisedState) markDirty(j int) {
	b := j / devexBlock
	if st.blockBest[b] != blockDirty {
		st.blockBest[b] = blockDirty
		st.dirtyBlocks = append(st.dirtyBlocks, int32(b))
	}
}

// scanBlock recomputes block b's cached best: the first strict maximum of
// r²/weight over its variables with positive reduced cost.
func (st *revisedState) scanBlock(b int) {
	lo := b * devexBlock
	hi := min(lo+devexBlock, st.n+st.m)
	best := -1
	bestScore := 0.0
	for j := lo; j < hi; j++ {
		r := st.rvec[j]
		if r <= reducedTol {
			continue
		}
		if score := r * r / st.weights[j]; score > bestScore {
			best, bestScore = j, score
		}
	}
	st.blockBest[b], st.blockScore[b] = int32(best), bestScore
}

// priceDevex selects the entering variable maximizing r²/weight over
// variables with positive reduced cost, per the stored (incrementally
// updated) reduced costs. It rescans only the blocks written since the last
// call — on the worker pool when they span at least two pool grains — and
// folds the cached block maxima in block order. A block's first strict
// maximum, folded in order with a strict comparison, is exactly the flat
// first strict maximum over all variables, so the selected column does not
// depend on which blocks were stale or on the worker count.
func (st *revisedState) priceDevex() int {
	t0 := tick(st.timers)
	defer st.timers.add(phPricing, t0)
	dirty := st.dirtyBlocks
	const grain = devexGrain / devexBlock
	if st.workers > 1 && len(dirty) >= 2*grain {
		par.For(st.workers, len(dirty), grain, func(k int) { st.scanBlock(int(dirty[k])) })
	} else {
		for _, b := range dirty {
			st.scanBlock(int(b))
		}
	}
	st.dirtyBlocks = dirty[:0]
	best := -1
	bestScore := 0.0
	for b, score := range st.blockScore {
		if score > bestScore {
			best, bestScore = int(st.blockBest[b]), score
		}
	}
	return best
}

// updateDevex performs the Forrest–Goldfarb update after choosing entering
// variable q and leaving basic position r: it computes the pivot row
// α = (B⁻¹)ᵣA (pivotRow), folds it into the stored reduced costs, grows the
// reference weights, and marks the pricing blocks it wrote. Must be called
// before the basis is modified.
//
// The update costs what the pivot row touches: a sparse pivot row visits
// only the variables it reaches, a dense one every variable, chunked over
// the worker pool, and marks every block. Each variable's arithmetic is
// self-contained, so the result is identical for every worker count.
func (st *revisedState) updateDevex(q, r int) {
	st.btranUnit(r) // times itself as phBtran; the pass below is phUpdate
	t0 := tick(st.timers)
	defer st.timers.add(phUpdate, t0)
	alphaQ := st.d[r] // pivot element
	if alphaQ == 0 {
		return // cannot happen for a legal pivot; guard anyway
	}
	rq := st.rvec[q]
	ratio := rq / alphaQ
	wq := st.weights[q]
	wLeave := wq / (alphaQ * alphaQ)
	if wLeave < 1 {
		wLeave = 1
	}
	invAlphaQ := 1 / alphaQ
	cand := st.pivotRow()
	alphaVec := st.alphaVec
	if !st.candDense {
		st.timers.rowPricedUpdate()
		for _, j32 := range cand {
			j := int(j32)
			if st.posOf[j] != -1 || j == q {
				continue
			}
			if alpha := alphaVec[j]; alpha != 0 {
				st.devexFold(j, alpha, ratio, invAlphaQ, wq)
				st.markDirty(j)
			}
		}
	} else {
		par.Ranges(st.workers, st.n+st.m, devexGrain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if st.posOf[j] != -1 || j == q {
					continue
				}
				if alpha := alphaVec[j]; alpha != 0 {
					st.devexFold(j, alpha, ratio, invAlphaQ, wq)
				}
			}
		})
		st.markAllDirty()
	}
	// entering becomes basic; leaving picks up the textbook post-pivot
	// reduced cost and weight.
	st.rvec[q] = 0
	st.weights[q] = 1
	leaving := st.basis[r]
	st.rvec[leaving] = -ratio
	st.weights[leaving] = wLeave
	st.markDirty(q)
	st.markDirty(leaving)
}

// devexFold folds nonbasic variable j's pivot-row entry alpha into its
// reduced cost and reference weight.
func (st *revisedState) devexFold(j int, alpha, ratio, invAlphaQ, wq float64) {
	st.rvec[j] -= ratio * alpha
	t := alpha * invAlphaQ
	if w := t * t * wq; w > st.weights[j] {
		st.weights[j] = w
	}
}

// --- Dantzig pricing ------------------------------------------------------

// dualRepairResult reports how a dual-repair phase ended.
type dualRepairResult int

const (
	// repairOK: the basis is primal feasible (possibly after zero pivots).
	repairOK dualRepairResult = iota
	// repairStalled: the pivot budget ran out or the infeasibility mass
	// stopped shrinking, even after a partial-warm cutover.
	repairStalled
	// repairUnbounded: a primal-infeasible row had no eligible entering
	// column in either pricing tier, or its FTRAN'd pivot disagreed with the
	// priced α — the dual is unbounded in that direction, which certifies
	// the bounds primal infeasible up to numerics.
	repairUnbounded
	// repairSingular: a mid-repair refactorization failed numerically.
	repairSingular
)

// repairStallFloor is the minimum stall window: the repair declares a stall
// only after max(repairStallFloor, m/2) consecutive pivots without a new
// infeasibility-mass minimum. The m/2 scaling matters — on the |U|=4000
// capacity workloads healthy repairs plateau (degenerate stretches, local
// mass oscillation) for several hundred pivots before breaking through, so a
// small fixed window would cut over mid-flight.
const repairStallFloor = 256

// dualRepair restores primal feasibility after a warm-start delta changed
// the right-hand side (or a removed basic column was substituted by a
// slack), using dual simplex pivots: pick a primal-infeasible row, price its
// pivot row, and bring in the entering variable that keeps the reduced costs
// non-positive. Starting from a (near-)optimal basis the dual values are
// feasible, so each pivot strictly improves the dual objective and the loop
// converges in a handful of pivots for a small delta — the reason warm
// re-solves beat cold ones.
//
// The leaving rule is dual steepest-edge: maximize xB[r]²/w[r] where w[r]
// approximates ‖B⁻ᵀe_r‖², maintained by a Forrest–Goldfarb-style update
// from the FTRAN column each pivot and reset to the unit reference framework
// at entry and on mid-repair refactorization. Normalizing by the row norm
// picks the row whose infeasibility is large in the geometry of the dual
// step, not merely in raw units — on degenerate bases the un-normalized
// most-negative rule repeatedly drains near-parallel rows and needs far more
// pivots for large deltas (DESIGN.md §11).
//
// The duals are maintained incrementally: one exact BTRAN once the first
// leaving-row scan finds a primal-infeasible row (and after each
// refactorization), then y' = y + γβ per pivot with γ the priced dual step
// and β the already-computed BTRAN'd pivot row — the per-pivot dense
// Bᵀy = c_B solve this replaces was a third of the repair's wall time on the
// capacity-shrink workloads. A patched basis that is already feasible pays
// neither that BTRAN nor the reduced-cost refresh: nothing here reads y
// before the first pivot, and the primal finish computes its own duals.
//
// budget bounds the pivots per attempt, and a stall detector watches the
// primal infeasibility mass Σ max(0, −x_B): if no new minimum appears over
// the stall window, the attempt is cut short. Either trigger causes one
// partial-warm cutover — keep the basis, refactorize it (shedding the eta
// chain and its round-off), re-price the certificate with an exact BTRAN,
// reset the steepest-edge framework, and grant a fresh budget — before the
// repair gives up for good. The cutover preserves all progress the repair
// made, where the previous policy discarded everything for an all-slack
// cold start.
//
// Returns the pivot count and how the phase ended; on anything but repairOK
// the caller falls back to a cold solve, so repair failure costs
// correctness nothing.
func (st *revisedState) dualRepair(budget, refactorEvery int) (int, dualRepairResult) {
	st.dseW = resize(st.dseW, st.m)
	for i := range st.dseW {
		st.dseW[i] = 1
	}
	primed := false
	stallWindow := st.m / 2
	if stallWindow < repairStallFloor {
		stallWindow = repairStallFloor
	}
	budgetLimit := budget
	bestMass := math.Inf(1)
	sinceImprove := 0
	cutovers := 0
	for pivots := 0; ; pivots++ {
		// Leaving row. Ties break on the lowest basis position (strict
		// improvement required), so the choice is deterministic.
		r := -1
		best := 0.0
		for i, x := range st.xB {
			if x < -warmFeasTol {
				if score := x * x / st.dseW[i]; score > best {
					best, r = score, i
				}
			}
		}
		if r < 0 {
			// clamp repair-tolerance negatives so the primal ratio test
			// starts from a feasible point
			for i, x := range st.xB {
				if x < 0 {
					st.xB[i] = 0
				}
			}
			return pivots, repairOK
		}
		if !primed {
			st.btran() // exact duals for the incremental y and red updates below
			st.refreshDualRed()
			primed = true
		}
		if pivots >= budgetLimit || sinceImprove >= stallWindow {
			if pivots >= budgetLimit {
				st.timers.budgetExhausted()
			}
			if cutovers >= 1 {
				return pivots, repairStalled
			}
			// Partial-warm cutover: keep the basis and every pivot of
			// progress, shed the eta chain and dual drift, retry once.
			cutovers++
			st.timers.partialWarmCutover()
			if st.refactorize() != nil {
				return pivots, repairSingular
			}
			st.btran()
			st.refreshDualRed()
			for i := range st.dseW {
				st.dseW[i] = 1
			}
			budgetLimit = pivots + budget
			bestMass = math.Inf(1)
			sinceImprove = 0
		}

		// price row r: α_j = (B⁻¹)_r·a_j for every nonbasic j against the
		// incrementally maintained duals
		st.btranUnit(r)
		q := st.priceDual()
		if q < 0 {
			return pivots, repairUnbounded
		}
		gamma := st.dualGamma

		st.ftran(q)
		dr := st.d[r]
		if dr > -pivotTol {
			// pivot row disagrees with its priced α: bail out
			return pivots, repairUnbounded
		}
		// Forrest–Goldfarb-style steepest-edge update from the FTRAN column
		// d = B⁻¹a_q, before the basis changes: position i's norm grows by
		// its share of the pivot row, and the pivot row's norm rescales by
		// 1/dr². The max() guards keep the approximation a valid upper-bound
		// reference (weights never collapse below the framework), the
		// standard safeguard for Devex-style updates. (The exact
		// Forrest–Goldfarb update — true w_r = ‖β‖² plus a τ = B⁻¹β FTRAN —
		// was measured here and LOST: from a unit-initialized reference it
		// needed ~19% more pivots on the capacity-shrink repairs and paid an
		// extra solve per pivot; the grow-only approximation's conservatism
		// is what earns its keep.)
		wr := st.dseW[r]
		invDr := 1 / dr
		for i, v := range st.d {
			if v != 0 && i != r {
				t := v * invDr
				if w := t * t * wr; w > st.dseW[i] {
					st.dseW[i] = w
				}
			}
		}
		wNew := wr * invDr * invDr
		if wNew < 1 {
			wNew = 1
		}
		st.dseW[r] = wNew
		theta := st.xB[r] / dr // xB[r] < 0, dr < 0 ⇒ θ > 0
		// The update sweep folds the post-pivot infeasibility-mass
		// accumulation (Σ max(0, −x_B), read by the stall detector below)
		// into the same pass; position r's term is appended after the loop.
		mass := 0.0
		for i := 0; i < st.m; i++ {
			x := st.xB[i]
			if v := st.d[i]; v != 0 && i != r {
				x -= theta * v
				st.xB[i] = x
			}
			if x < 0 && i != r {
				mass -= x
			}
		}
		st.xB[r] = theta
		if theta < 0 {
			mass -= theta
		}
		// dual step: y' = y + γβ keeps red_q' = 0 for the entering column
		// without a fresh Bᵀy solve, and red' = red − γ·α folds the same
		// step into the maintained reduced costs over exactly the α values
		// the pricing pass produced (everything it did not visit has α = 0;
		// basic slots pick up garbage nobody reads). Exact recompute happens
		// at the next refactorization, so round-off cannot accumulate past
		// one eta chain.
		if gamma != 0 {
			st.stepDuals(gamma)
			red, al := st.rvec, st.alphaVec
			if st.candDense {
				for j := range red {
					red[j] -= gamma * al[j]
				}
			} else {
				for _, j := range st.candList {
					red[j] -= gamma * al[j]
				}
			}
		}
		leaving := st.basis[r]
		st.posOf[leaving] = -1
		st.basis[r] = q
		st.posOf[q] = r
		st.cB[r] = st.objCoef(q)
		// the entering column is basic now (red exactly 0); the leaving one
		// picks up the textbook post-pivot reduced cost −γ
		st.rvec[q] = 0
		st.rvec[leaving] = -gamma
		st.pushEta(r)
		st.timers.repairPivotDone()
		if mass < bestMass*(1-1e-6) {
			bestMass = mass
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if len(st.etas) >= refactorEvery {
			if st.refactorize() != nil {
				return pivots, repairSingular
			}
			st.btran() // fresh exact duals for the next incremental stretch
			st.refreshDualRed()
			// fresh reference framework: the norms tracked the old
			// product-form basis representation (keeping the learned weights
			// across the refactorization was measured and costs ~18% more
			// pivots on the capacity-shrink repair)
			for i := range st.dseW {
				st.dseW[i] = 1
			}
		}
	}
}

// priceDual runs the dual ratio test with full candidate coverage: among
// columns with pivot-row entry α_j < -pivotTol (computed against st.beta,
// the BTRAN'd pivot row), pick the one minimizing red_j/α_j, with a pivotTol
// tolerance band broken toward the steepest α.
//
// The pass builds α with pivotRow and reads only the variables it reached:
// the candidate list of a sparse pivot row, every variable of a dense one.
// Reduced costs come from the maintained st.rvec (exact-refreshed at the
// repair's first pivot and every refactorization, updated per pivot from the
// same α values this pass produces); computing them on demand per candidate
// was measured ~40% slower, as the short column dots chase pointers where the
// maintained read streams. The pass is sequential — worker-count invariance
// is structural — and β is bit-identical whichever triangular kernel
// produced it, so the hypersparse threshold cannot move a pivot.
//
// Candidates split into two tiers. Columns whose reduced cost is within the
// dual-feasibility tolerance (red ≤ reducedTol, negatives and boundary
// stragglers) run the ordinary ratio test. Columns that are outright dual
// infeasible — typically a delta's freshly appended columns, whose positive
// reduced cost the entering dual prices have not met yet — are kept out of
// the ratio test entirely: their ratio red/α is negative, so the min-ratio
// rule would pick them eagerly at ratio ≈ 0, and their entry reverses the
// dual objective and re-breaks primal feasibility elsewhere (measured on the
// |U|=4000 bid-churn delta this exact poisoning diverged the repair: the
// infeasibility mass oscillated up to 8·10⁷ and the repair burned its whole
// budget before falling back cold). They are tracked as a second-tier
// fallback — steepest α wins — used only when no feasible-tier candidate
// exists anywhere, so a row whose only eligible entering columns are dual
// infeasible still pivots instead of stalling the repair.
//
// The winner's reduced cost and α are recorded in st.dualGamma as the dual
// step length γ = red_q/α_q, which dualRepair uses to update the duals
// (y' = y + γβ) incrementally instead of re-solving Bᵀy = c_B every pivot.
func (st *revisedState) priceDual() int {
	t0 := tick(st.timers)
	defer st.timers.add(phPricing, t0)
	return st.dualRatio(st.pivotRow())
}

// dualRatio is priceDual's two-tier ratio test over the pivot row in
// st.alphaVec: over cand, the variables the scatter reached, or over every
// variable after the sweep (candDense).
func (st *revisedState) dualRatio(cand []int32) int {
	alphaVec, red, dense := st.alphaVec, st.rvec, st.candDense
	reached := len(cand)
	if dense {
		reached = st.n + st.m
	}
	q, relax := -1, -1
	var bestRatio, bestAlpha, bestRed float64
	var relaxAlpha, relaxRed float64
	for k := 0; k < reached; k++ {
		j := k
		if !dense {
			j = int(cand[k])
		}
		alpha := alphaVec[j]
		if alpha >= -pivotTol || st.posOf[j] != -1 {
			continue
		}
		rj := red[j]
		if rj > reducedTol {
			if relax < 0 || alpha < relaxAlpha {
				relax, relaxAlpha, relaxRed = j, alpha, rj
			}
			continue
		}
		rc := min(rj, 0)    // boundary stragglers within tolerance: ratio 0
		ratio := rc / alpha // ≥ 0
		if q < 0 || ratio < bestRatio-pivotTol ||
			(ratio <= bestRatio+pivotTol && alpha < bestAlpha) {
			q, bestRatio, bestAlpha, bestRed = j, ratio, alpha, rj
		}
	}
	if q < 0 && relax >= 0 {
		// No feasible-tier candidate anywhere: fall back to the steepest
		// dual-infeasible column rather than stalling the whole repair.
		q, bestAlpha, bestRed = relax, relaxAlpha, relaxRed
	}
	if q >= 0 {
		st.dualGamma = bestRed / bestAlpha
	}
	return q
}

// pivotRow computes the pivot row α_j = βᵀa_j (β = st.beta) of every
// variable into st.alphaVec, the one builder of α for the Devex update and
// the dual repair: the scatter (scatterPivotRow) when β is sparse, else the
// sweep (sweepPivotRow). It returns the scatter's reached variables, or nil
// after the sweep, and st.candDense says which ran. Both passes add β_r to
// α_j for the rows r with β_r ≠ 0 in ascending order, from zero, so they give
// the same bits for any column order, and the choice moves only cost.
func (st *revisedState) pivotRow() []int32 {
	if st.betaSparse() {
		return st.scatterPivotRow()
	}
	st.sweepPivotRow()
	return nil
}

// betaSparse reports whether the pivot row β = st.beta is sparse enough,
// nnz(β)·8 ≤ m, for the row scatter (scatterPivotRow) to beat the sweep.
// Past ~1/8 density the scatter's epoch-stamp bookkeeping costs more than a
// sweep with purely sequential accesses. β is bit-identical whichever
// triangular kernel produced it, so the choice cannot depend on the
// hypersparse threshold or the worker count.
func (st *revisedState) betaSparse() bool {
	nnz := 0
	for _, v := range st.beta {
		if v != 0 {
			nnz++
		}
	}
	return nnz*8 <= st.m
}

// scatterPivotRow is pivotRow's pass for a sparse β. Through the row-major
// mirror of A, for each row r with β_r ≠ 0, in ascending order, it adds β_r
// to α_j of every column j with a 1 in row r, and the row's slack gets
// α = β_r. It returns the reached variables; their α is in st.alphaVec, and
// every other variable has α = 0. The list and the values are epoch-stamped
// (beginCandidates), so no O(n) clearing happens between pivots, and both
// stay valid until the next call. The cost is proportional to the nonzeros
// of β's rows, not to all of A.
func (st *revisedState) scatterPivotRow() []int32 {
	st.buildARows()
	epoch := st.beginCandidates(st.n + st.m)
	st.candDense = false
	alphaVec, stamp := st.alphaVec, st.candStamp
	cand := st.candList[:0]
	for r, br := range st.beta {
		if br == 0 {
			continue
		}
		for _, part := range st.aRow(r) {
			for _, j := range part {
				if stamp[j] != epoch {
					stamp[j] = epoch
					alphaVec[j] = 0
					cand = append(cand, j)
				}
				alphaVec[j] += br
			}
		}
		sj := int32(st.n + r) // the row's slack: α is β_r itself
		stamp[sj] = epoch
		alphaVec[sj] = br
		cand = append(cand, sj)
	}
	st.candList = cand
	return cand
}

// sweepPivotRow is pivotRow's pass for a dense β: the scatter's additions,
// in the same order, into an α cleared over every variable, without the
// candidate bookkeeping. At ≥ 1/8 β density a sequential pass over every
// variable is cheaper than chasing an almost complete candidate list.
func (st *revisedState) sweepPivotRow() {
	st.buildARows()
	st.alphaVec = resize(st.alphaVec, st.n+st.m)
	st.candDense = true
	alphaVec := st.alphaVec
	clear(alphaVec)
	for r, br := range st.beta {
		if br == 0 {
			continue
		}
		for _, part := range st.aRow(r) {
			for _, j := range part {
				alphaVec[j] += br
			}
		}
		alphaVec[st.n+r] = br // the row's slack
	}
}

// beginCandidates sizes the epoch-stamped candidate scratch for a pricing
// pass over total columns and opens a fresh epoch, so the previous pivot's
// α values and candidate stamps expire without any O(n) clearing.
func (st *revisedState) beginCandidates(total int) int32 {
	if cap(st.candStamp) < total {
		st.candStamp = resize(st.candStamp, total)
		clear(st.candStamp)
		st.candEpoch = 0
	}
	st.alphaVec = resize(st.alphaVec, total)
	st.candStamp = st.candStamp[:total]
	st.candEpoch++
	if st.candEpoch == 0 { // wrapped: stale stamps could collide
		for i := range st.candStamp {
			st.candStamp[i] = -1
		}
		st.candEpoch = 1
	}
	return st.candEpoch
}

// buildARows constructs (or reuses) the row-major mirror of the structural
// matrix for the pivot-row scatter. One counting pass plus one scatter
// pass over the nonzeros; columns come out ascending within each row because
// the scatter visits them in ascending order. Invalidated by rebind and
// compaction; bounds and objective deltas leave the pattern untouched, and
// appended columns are patched in by appendARows.
func (st *revisedState) buildARows() {
	if st.aRowsOK {
		return
	}
	p := st.p
	nnz := len(p.Rows)
	st.aRowPtr = resize(st.aRowPtr, st.m+1)
	for i := range st.aRowPtr {
		st.aRowPtr[i] = 0
	}
	for _, r := range p.Rows {
		st.aRowPtr[r+1]++
	}
	st.aRowCur = resize(st.aRowCur, st.m)
	for i := 0; i < st.m; i++ {
		st.aRowPtr[i+1] += st.aRowPtr[i]
		st.aRowCur[i] = st.aRowPtr[i]
	}
	st.aRowIdx = resize(st.aRowIdx, nnz)
	for j := 0; j < st.n; j++ {
		for _, r := range p.Col(j) {
			st.aRowIdx[st.aRowCur[r]] = int32(j)
			st.aRowCur[r]++
		}
	}
	if len(st.aTail) != st.m {
		st.aTail = nil // appendARows allocates it for this m
	}
	for r := range st.aTail {
		st.aTail[r] = st.aTail[r][:0]
	}
	st.aRowsOK = true
}

// aRow returns row r of the row mirror, ascending in two parts, tombstones
// included: the columns the build saw, then those appended since.
func (st *revisedState) aRow(r int) [2][]int32 {
	var tail []int32
	if st.aTail != nil {
		tail = st.aTail[r]
	}
	return [2][]int32{st.aRowIdx[st.aRowPtr[r]:st.aRowPtr[r+1]], tail}
}

// rowLen returns the length of row r of the row mirror, tombstones
// included.
func (st *revisedState) rowLen(r int) int {
	n := int(st.aRowPtr[r+1] - st.aRowPtr[r])
	if st.aTail != nil {
		n += len(st.aTail[r])
	}
	return n
}

// appendARows patches column j, the highest slot so far, into a built row
// mirror: it goes to the end of each of its rows, which keeps them
// ascending, at O(1) amortized per entry.
func (st *revisedState) appendARows(j int) {
	if !st.aRowsOK {
		return
	}
	if st.aTail == nil {
		st.aTail = make([][]int32, st.m)
	}
	for _, r := range st.p.Col(j) {
		st.aTail[r] = append(st.aTail[r], int32(j))
	}
}

// refreshDualRed sets the maintained reduced costs st.rvec exactly from the
// current duals, red_j = c_j − yᵀa_j, by copying the synced reduced-cost
// cache. Basic slots get values that are never read; the incremental
// updates scribble on them freely. Called whenever the duals themselves are
// recomputed exactly (the repair's first pivot, refactorizations), so the
// incremental red updates never drift further than one eta chain.
func (st *revisedState) refreshDualRed() {
	st.syncRed()
	t0 := tick(st.timers)
	st.rvec = resize(st.rvec, st.n+st.m)
	copy(st.rvec, st.redC)
	st.timers.add(phPricing, t0)
}

// syncRed brings the reduced-cost cache to the current duals. An invalid
// cache takes a full pass over every variable. A valid one recomputes only
// what an input of reducedCost changed under: every column on a row whose
// y differs from yRef bit for bit (found through the row mirror), that
// row's slack, and every column queued in redDirty. Between two pricing
// calls of the pivot loop the moved rows are the support of the pivot's β,
// which the dual step alone writes; a full btran (refactorization,
// recertification) may move any row by rounding. The candidate epoch
// stamps recompute each column once per sync, and redMoved lists them.
// reducedCost(j) is a pure function of c_j and of y on j's rows, summed in a
// fixed order, so every entry afterwards equals a fresh reducedCost(j) bit
// for bit, and pricing from the cache picks exactly what pricing from
// scratch would. Every recomputed entry sets or clears its bit of the
// candidate index, which a full pass or an invalidated index rebuilds. It
// counts the moved rows and the recomputed variables into the phase timers
// and times itself as their Sync phase.
func (st *revisedState) syncRed() {
	t0 := tick(st.timers)
	defer st.timers.add(phSync, t0)
	total := st.n + st.m
	if !st.redOK {
		st.redC = resize(st.redC, total)
		for j := 0; j < total; j++ {
			st.redC[j] = st.reducedCost(j)
		}
		st.yRef = append(st.yRef[:0], st.y...)
		st.redDirty = st.redDirty[:0]
		st.redOK = true
		st.buildIndex()
		st.timers.synced(st.m, total, total)
		return
	}
	if !st.idxOK {
		st.buildIndex()
	}
	epoch := st.beginCandidates(total)
	stamp, red := st.candStamp, st.redC
	moved := st.redMoved[:0]
	rows, work := 0, len(st.redDirty)
	for r, yr := range st.y {
		if math.Float64bits(yr) == math.Float64bits(st.yRef[r]) {
			continue
		}
		st.yRef[r] = yr
		rows++
		st.buildARows()
		work += st.rowLen(r) + 1
		for _, part := range st.aRow(r) {
			for _, j := range part {
				if stamp[j] != epoch {
					stamp[j] = epoch
					red[j] = st.reducedCost(int(j))
					st.markRed(int(j))
					moved = append(moved, j)
				}
			}
		}
		red[st.n+r] = st.reducedCost(st.n + r)
		st.markRed(st.n + r)
		moved = append(moved, int32(st.n+r))
	}
	for _, j := range st.redDirty {
		if stamp[j] != epoch {
			stamp[j] = epoch
			red[j] = st.reducedCost(int(j))
			st.markRed(int(j))
			moved = append(moved, j)
		}
	}
	st.redDirty = st.redDirty[:0]
	st.redMoved = moved
	st.timers.synced(rows, len(moved), work)
}

// markRed sets bit j of the candidate index from redC[j].
func (st *revisedState) markRed(j int) {
	w, b := j>>6, uint64(1)<<(j&63)
	if st.redC[j] > reducedTol {
		st.redPos[w] |= b
	} else {
		st.redPos[w] &^= b
	}
}

// buildIndex rebuilds the candidate index from redC and posOf in one pass.
func (st *revisedState) buildIndex() {
	total := st.n + st.m
	words := (total + 63) >> 6
	st.redPos = resize(st.redPos, words)
	st.tombs = resize(st.tombs, words)
	clear(st.redPos)
	clear(st.tombs)
	for j, r := range st.redC[:total] {
		if r > reducedTol {
			st.redPos[j>>6] |= 1 << (j & 63)
		}
	}
	if st.dead > 0 {
		for j, pos := range st.posOf[:st.n] {
			if pos == deadSlot {
				st.tombs[j>>6] |= 1 << (j & 63)
			}
		}
	}
	st.idxOK = true
}

// growIndex carries the candidate index across growSlots from oldN to newN
// structural slots: the words past the old end start clear, and the slots
// whose entries moved or are new, the appended ones and the slack block,
// [oldN, newN+m), take their bits from redC anew, in O(appended + m). Their
// tombstone bits are already clear: they held slacks or lay past the end.
func (st *revisedState) growIndex(oldN, newN int) {
	words := (newN + st.m + 63) >> 6
	old := len(st.redPos)
	st.redPos = slices.Grow(st.redPos, words-old)[:words]
	st.tombs = slices.Grow(st.tombs, words-old)[:words]
	clear(st.redPos[old:])
	clear(st.tombs[old:])
	for j := oldN; j < newN+st.m; j++ {
		st.markRed(j)
	}
}

// pricePartial scans a window of variables starting at cursor and returns
// the best improving one; if the window has none it widens to a full pass,
// which also certifies optimality (return -1). Given a cold solve's block
// summaries bounds it runs priceBounded; with cached it brings the
// reduced-cost cache up to date (syncRed), however stale, and runs
// priceIndexed, which reads only its improving entries; otherwise it
// computes each reduced cost, the plain scan. All three return the plain
// scan's (q, next). Tombstones are skipped and not counted against the
// window or the pass, so the scan visits the live variables in the order,
// and stops where, it would on the compacted problem.
func (st *revisedState) pricePartial(cursor, window int, cached bool, bounds *priceBounds) (q, next int) {
	if cached {
		st.syncRed()
	}
	t0 := tick(st.timers)
	defer st.timers.add(phPricing, t0)
	switch {
	case bounds != nil:
		return st.priceBounded(cursor, window, bounds)
	case cached:
		return st.priceIndexed(cursor, window)
	}
	total := st.n + st.m
	live := total - st.dead
	best, bestRed := -1, reducedTol
	scanned, improving := 0, 0
	i := cursor
	for scanned < live {
		if pos := st.posOf[i]; pos != deadSlot {
			if pos < 0 {
				if red := st.reducedCost(i); red > reducedTol {
					improving++
					if red > bestRed {
						best, bestRed = i, red
					}
				}
			}
			scanned++
		}
		i++
		if i == total {
			i = 0
		}
		if scanned >= window && best >= 0 {
			break
		}
	}
	st.lastImproving = improving
	st.scanned(scanPlain, scanned, 0)
	return best, i
}

// priceIndexed is the cached pricePartial: it returns the plain scan's
// (q, next) from the synced cache while reading only the variables the
// candidate index marks improving. All ranges are cyclic. The plain scan's
// window ends at W, the slot after the window-th live variable from cursor,
// or, when the pass holds no more than window live variables, at E, the
// slot after its last one; both come from popcounts of the tombstone bits.
// If [cursor, W) holds a candidate, the plain scan returns the first strict
// maximum among them and W. Otherwise it goes on to the first candidate c
// of the rest of the pass and returns c and the slot after it, or, with
// none left, −1 and E. PricedVars counts the candidates read, and
// SkippedVars the rest of the live variables the plain scan would have
// counted, so their sum is the plain scan's count.
func (st *revisedState) priceIndexed(cursor, window int) (q, next int) {
	total := st.n + st.m
	live := total - st.dead
	full := window >= live
	var end int
	if full {
		end = st.passEnd(cursor)
	} else {
		end = st.liveAfter(cursor, window)
	}
	best, read := st.indexCycle(cursor, end, 0, false)
	counted := min(window, live)
	next = end
	if best < 0 && !full {
		// The rest of the pass, [end, cursor): the plain scan counts every
		// live variable of it before it would return to cursor.
		var c int
		if c, read = st.indexCycle(end, cursor, read, true); c >= 0 {
			best, next = c, c+1
			if next == total {
				next = 0
			}
			counted += st.liveIn(end, next)
		} else {
			next, counted = st.passEnd(cursor), live
		}
	}
	st.scanned(scanCached, read, counted-read)
	return best, next
}

// indexBest folds the candidates of slots [lo, hi) into the first strict
// maximum (best, bestRed) of their cached reduced costs, in slot order, and
// counts the index entries it read into read; with first, it returns at the
// first candidate it takes. A basic variable whose bit is set is read but
// never taken.
func (st *revisedState) indexBest(lo, hi, best int, bestRed float64, read int, first bool) (int, float64, int) {
	red, pos := st.redC, st.posOf
	for w := lo >> 6; w<<6 < hi; w++ {
		word := st.redPos[w] &^ st.tombs[w] & wordMask(w, lo, hi)
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			read++
			if pos[j] == -1 && red[j] > bestRed {
				best, bestRed = j, red[j]
				if first {
					return best, bestRed, read
				}
			}
		}
	}
	return best, bestRed, read
}

// indexCycle returns the first strict maximum of the candidates of the
// cyclic range [lo, hi), the whole pass when lo == hi, or with first the
// first candidate, as indexBest does on each linear part; −1 if none.
func (st *revisedState) indexCycle(lo, hi, read int, first bool) (int, int) {
	if hi > lo {
		best, _, read := st.indexBest(lo, hi, -1, reducedTol, read, first)
		return best, read
	}
	best, bestRed, read := st.indexBest(lo, st.n+st.m, -1, reducedTol, read, first)
	if first && best >= 0 {
		return best, read
	}
	best, _, read = st.indexBest(0, hi, best, bestRed, read, first)
	return best, read
}

// wordMask returns the bits of bitset word w that lie in slots [lo, hi).
func wordMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if b := lo - w<<6; b > 0 {
		m <<= b
	}
	if b := (w+1)<<6 - hi; b > 0 {
		m &= ^uint64(0) >> b
	}
	return m
}

// liveAfter returns the slot after the k-th live variable from cursor, for
// 1 ≤ k < the live count: the end of a window of k.
func (st *revisedState) liveAfter(cursor, k int) int {
	total := st.n + st.m
	if st.dead == 0 {
		if j := cursor + k; j < total {
			return j
		}
		return cursor + k - total
	}
	// Count the live bits, ^tombs, word by word. Back at cursor's word
	// after a wrap, the k-th live bit lies below cursor, and the lowest
	// bits are selected first.
	w := cursor >> 6
	word := ^st.tombs[w] & wordMask(w, cursor, total)
	for {
		if c := bits.OnesCount64(word); c < k {
			k -= c
			if w++; w<<6 >= total {
				w = 0
			}
			word = ^st.tombs[w] & wordMask(w, 0, total)
			continue
		}
		for ; k > 1; k-- {
			word &= word - 1
		}
		if j := w<<6 | bits.TrailingZeros64(word); j+1 < total {
			return j + 1
		}
		return 0
	}
}

// passEnd returns the slot after the last live variable of a pass from
// cursor: cursor itself unless tombstones sit just before it.
func (st *revisedState) passEnd(cursor int) int {
	if st.dead == 0 || cursor == 0 {
		return cursor
	}
	w := (cursor - 1) >> 6
	word := ^st.tombs[w] & wordMask(w, 0, cursor)
	for {
		if word != 0 {
			return w<<6 | (63 - bits.LeadingZeros64(word)) + 1
		}
		if w--; w < 0 {
			// Every slot below cursor is a tombstone. The last slot, a
			// slack, is live, so the pass ends by wrapping to 0.
			return 0
		}
		word = ^st.tombs[w]
	}
}

// liveIn returns the number of live slots in the cyclic range [lo, hi),
// lo ≠ hi.
func (st *revisedState) liveIn(lo, hi int) int {
	if hi < lo {
		return st.liveIn(lo, st.n+st.m) + st.liveIn(0, hi)
	}
	n := hi - lo
	if st.dead == 0 {
		return n
	}
	for w := lo >> 6; w<<6 < hi; w++ {
		n -= bits.OnesCount64(st.tombs[w] & wordMask(w, lo, hi))
	}
	return n
}

// pricingHook, when set, runs after every partial Dantzig pricing call of
// the pivot loop, the certification pass included, with the call's
// arguments and results: scan names the scan that served it, and warm
// says the solve is a warm re-solve. Tests use it to check each call
// against the plain scan; it is nil otherwise.
var pricingHook func(st *revisedState, bounds *priceBounds, scan scanKind, warm bool, cursor, window, q, next int)

// btranHook, when set, runs whenever btran returns early because y is
// already exact. Tests use it to recompute y and compare the bits; it is
// nil otherwise.
var btranHook func(st *revisedState)

// dualHook, when set, runs whenever the pivot loop is about to replace
// incrementally updated duals by a full btran (or drop them for Bland),
// while st.y still belongs to the current basis. Tests use it to compare the
// updated duals with exact ones; it is nil otherwise.
var dualHook func(st *revisedState)

// boundBlock is the width, in variables, of one bounded-pricing block.
const boundBlock = 128

// boundShape is the least ratio of a block's nonzeros to its row union at
// which the block keeps a bound. Checking the bound reads the union, while
// scanning the block reads every nonzero, so below this ratio a bound that
// rarely skips would cost a visible share of the scan it tries to save.
// Meetup LPs' blocks, 128 sets of one or two users, sit at 70–90; the
// synthetic plan_tall LPs' blocks, ~12 users each, at 4–8.
const boundShape = 16

// unitRoundoff is u = 2⁻⁵³, the relative rounding error of one float64
// operation under round-to-nearest.
const unitRoundoff = 0x1p-53

// priceBounds lets a cold partial-Dantzig scan count a block of boundBlock
// consecutive variables as scanned without reading its columns, when a dual
// bound proves that no variable in it is improving (DESIGN.md §3). A block's
// summary is taken at its last full evaluation by the scan: maxRed, the
// largest reduced cost among its nonbasic variables then, and yEval, the
// duals of its row union then. Each column lists a row at most once, so
// every variable j of block b that is nonbasic now and was nonbasic then has
//
//	red_j(y) ≤ maxRed_b + Σ_{r∈R_b} max(0, yEval_r − y_r),
//
// and a variable that was basic then must leave the basis to be nonbasic
// now, which invalidates the block. The summaries live for one cold solve:
// pivot builds them and drops them on return, and cold solves have no
// tombstones.
type priceBounds struct {
	// per block: whether it passed the shape rule, and its summary's maxRed:
	// +Inf before the first full evaluation and after a variable left the
	// basis, −Inf when it had no nonbasic variable
	use    []bool
	maxRed []float64
	// rows[rowLo[b]:rowLo[b+1]] is block b's row union, in order of first
	// appearance, and yEval holds their duals at the summary
	rowLo []int32
	rows  []int32
	yEval []float64
	// cAbs is max |c_j| over the problem, a rounding-margin input
	cAbs float64
}

// newPriceBounds builds the block row unions for st's problem and returns
// nil when no block passes the shape rule. A block's union build stops as
// soon as it outgrows the rule, so a rejected block costs a few of its
// columns. A block of slacks alone, whose union is as large as its
// nonzeros, never passes, so a problem without columns gets nil at once.
func newPriceBounds(st *revisedState) *priceBounds {
	if st.n == 0 {
		return nil
	}
	total := st.n + st.m
	nb := (total + boundBlock - 1) / boundBlock
	pb := &priceBounds{
		use:    make([]bool, nb),
		maxRed: make([]float64, nb),
		rowLo:  make([]int32, nb+1),
	}
	stamp := make([]int32, st.m) // stamp[r] == b+1: r is in block b's union
	used := false
	for b := 0; b < nb; b++ {
		pb.maxRed[b] = math.Inf(1)
		lo, hi := b*boundBlock, min((b+1)*boundBlock, total)
		sLo, sHi := min(lo, st.n), min(hi, st.n) // structural part
		nnz := st.p.ColPtr[sHi] - st.p.ColPtr[sLo] + max(0, hi-max(lo, st.n))
		limit := len(pb.rows) + nnz/boundShape
		tag := int32(b + 1)
		ok := true
		for _, r := range st.p.Rows[st.p.ColPtr[sLo]:st.p.ColPtr[sHi]] {
			if stamp[r] != tag {
				stamp[r] = tag
				pb.rows = append(pb.rows, r)
				if ok = len(pb.rows) <= limit; !ok {
					break
				}
			}
		}
		for r := max(lo, st.n) - st.n; ok && r < hi-st.n; r++ { // slack rows
			if stamp[r] != tag {
				stamp[r] = tag
				pb.rows = append(pb.rows, int32(r))
				ok = len(pb.rows) <= limit
			}
		}
		if ok {
			used = true
			pb.use[b] = true
		} else {
			pb.rows = pb.rows[:pb.rowLo[b]]
		}
		pb.rowLo[b+1] = int32(len(pb.rows))
	}
	if !used {
		return nil
	}
	pb.yEval = make([]float64, len(pb.rows))
	for _, c := range st.p.C {
		pb.cAbs = max(pb.cAbs, math.Abs(c))
	}
	return pb
}

// invalidate drops the summary of the block holding variable v, which just
// left the basis. Valid on a nil receiver.
func (pb *priceBounds) invalidate(v int) {
	if pb != nil {
		pb.maxRed[v/boundBlock] = math.Inf(1)
	}
}

// record stores block b's summary after a full evaluation under duals y.
func (pb *priceBounds) record(b int, maxRed float64, y []float64) {
	if !pb.use[b] {
		return
	}
	pb.maxRed[b] = maxRed
	lo, hi := pb.rowLo[b], pb.rowLo[b+1]
	ye := pb.yEval[lo:hi]
	for k, r := range pb.rows[lo:hi] {
		ye[k] = y[r]
	}
}

// skips reports whether block b's bound proves, under duals y, that every
// nonbasic variable in it has a computed reduced cost ≤ reducedTol, so the
// plain scan would read the block and change nothing. The margin covers the
// rounding of both reduced costs and of the bound itself (DESIGN.md §3).
func (pb *priceBounds) skips(b int, y []float64) bool {
	if !pb.use[b] {
		return false
	}
	mr := pb.maxRed[b]
	if mr > reducedTol {
		return false // +Inf included: no valid summary
	}
	if math.IsInf(mr, -1) {
		return true // every variable was basic and none has left since
	}
	lo, hi := pb.rowLo[b], pb.rowLo[b+1]
	ye := pb.yEval[lo:hi]
	var delta, yAbs float64
	for k, r := range pb.rows[lo:hi] {
		e, n := ye[k], y[r]
		if d := e - n; d > 0 {
			delta += d
			if mr+delta > reducedTol {
				return false
			}
		}
		yAbs = max(yAbs, math.Abs(e), math.Abs(n))
	}
	// a column lists each row at most once, all of them in the union, so
	// the union's size bounds every column's length
	k := float64(hi - lo)
	t := mr + delta
	margin := 8 * unitRoundoff * (math.Abs(t) + (k+1)*delta + k*(pb.cAbs+k*yAbs))
	return t+margin <= reducedTol
}

// priceBounded is the cold pricePartial over block summaries: it returns
// the plain scan's (q, next) on every call. A scan that reaches a block at
// its first variable with the whole block left in the pass counts it as
// scanned without reading it when the block's bound proves it non-improving
// and the scan cannot stop inside it — no candidate yet, or the window
// closes no earlier than the block's end. Every other stretch is scanned
// variable by variable exactly as the plain scan does, and a block scanned
// whole refreshes its summary.
func (st *revisedState) priceBounded(cursor, window int, pb *priceBounds) (q, next int) {
	total := st.n + st.m // a cold solve has no tombstones
	best, bestRed := -1, reducedTol
	scanned, skipped := 0, 0
	i := cursor
	for scanned < total {
		b := i / boundBlock
		lo := b * boundBlock
		hi := min(lo+boundBlock, total)
		whole := i == lo && scanned+hi-lo <= total
		if whole && (best < 0 || scanned+hi-lo <= window) && pb.skips(b, st.y) {
			scanned += hi - lo
			skipped += hi - lo
			i = hi
		} else {
			end := min(hi, i+total-scanned)
			blockMax := math.Inf(-1)
			for j := i; j < end; j++ {
				if st.posOf[j] < 0 {
					red := st.reducedCost(j)
					if red > blockMax {
						blockMax = red
					}
					if red > bestRed {
						best, bestRed = j, red
					}
				}
				scanned++
				if scanned >= window && best >= 0 && j+1 < end {
					st.scanned(scanBounded, scanned-skipped, skipped)
					return best, j + 1
				}
			}
			if whole {
				pb.record(b, blockMax, st.y)
			}
			i = end
		}
		if i == total {
			i = 0
		}
		if scanned >= window && best >= 0 {
			break
		}
	}
	st.scanned(scanBounded, scanned-skipped, skipped)
	return best, i
}

// priceBland returns the lowest-index variable with positive reduced cost
// (used during anti-cycling episodes), read from the synced cache when
// cached, as in pricePartial, whose scan rule picks it.
func (st *revisedState) priceBland(cached bool) int {
	if cached {
		st.syncRed()
	}
	t0 := tick(st.timers)
	defer st.timers.add(phPricing, t0)
	read := 0
	for q := 0; q < st.n+st.m; q++ {
		if st.posOf[q] != -1 {
			continue
		}
		read++
		var red float64
		if cached {
			red = st.redC[q]
		} else {
			red = st.reducedCost(q)
		}
		if red > reducedTol {
			st.timers.read(read)
			return q
		}
	}
	st.timers.read(read)
	return -1
}

// extract assembles the optimal solution from the final basis. X and Y are
// views into state-owned buffers, reused by the next solve on this state.
// It costs O(m + n/64), not O(n): only the entries the previous extract
// wrote are cleared, and the basic structurals are visited in ascending slot
// order through a bitmap. The objective sums their terms in that order,
// which is bit-equal to summing cⱼxⱼ over every column, because each
// nonbasic term is a signed zero and adding one changes no sum.
func (st *revisedState) extract(iters int) *Solution {
	x := st.xOut
	if st.xSetOK && cap(x) >= st.n {
		for _, j := range st.xSet {
			x[j] = 0
		}
		if old := len(x); old < st.n {
			x = x[:st.n]
			clear(x[old:])
		}
	} else {
		x = resize(x, st.n)
		clear(x)
	}
	st.xOut = x
	words := (st.n + 63) / 64
	if cap(st.xMark) < words {
		st.xMark = resize(st.xMark, words)
		clear(st.xMark)
	}
	mark := st.xMark[:words]
	st.xSet = slices.Grow(st.xSet[:0], st.m)
	for i, v := range st.basis {
		if v < st.n {
			val := st.xB[i]
			if val < 0 && val > -1e-9 {
				val = 0
			}
			x[v] = val
			mark[v>>6] |= 1 << (v & 63)
		}
	}
	obj := 0.0
	for w, bitsW := range mark {
		for bitsW != 0 {
			j := w<<6 | bits.TrailingZeros64(bitsW)
			bitsW &= bitsW - 1
			st.xSet = append(st.xSet, int32(j))
			obj += st.p.C[j] * x[j]
		}
		mark[w] = 0
	}
	st.xSetOK = true
	st.yOut = resize(st.yOut, st.m)
	y := st.yOut
	copy(y, st.y)
	for i := range y {
		if y[i] < 0 && y[i] > -1e-9 {
			y[i] = 0
		}
	}
	return &Solution{Status: Optimal, X: x, Y: y, Objective: obj, Iterations: iters}
}
