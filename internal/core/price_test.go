package core

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// cgTol is the reduced cost a column must exceed to enter the master.
const cgTol = 1e-9

// pricer prices LP (1)-(4)'s columns without enumerating them: the column
// of user u with the largest reduced cost under duals y is u's heaviest
// admissible set on the adjusted weights w(u,v) − y_v, which
// admissible.Searcher finds. Its searches are unbudgeted, so every answer
// is the exact maximum over u's whole family.
type pricer struct {
	in   *model.Instance
	conf *conflict.Matrix
	s    admissible.Searcher
}

func newPricer(in *model.Instance) *pricer {
	return &pricer{in: in, conf: conflict.FromFunc(in.NumEvents(), in.Conflicts)}
}

// best returns user u's heaviest admissible set under the event weights
// w(u,v) − dual(v), events ascending, and its weight summed in that order;
// nil and 0 when no set weighs more than zero. The set is the Searcher's
// scratch, valid until the next call.
func (pr *pricer) best(u int, dual func(v int) float64) ([]int, float64) {
	wc := pr.in.Weights()
	adj := func(v int) float64 { return wc.Of(u, v) - dual(v) }
	usr := &pr.in.Users[u]
	set := pr.s.Best(usr.Bids, usr.Capacity, pr.conf, adj, admissible.Config{MaxSetsPerUser: -1})
	w := 0.0
	for _, v := range set {
		w += adj(v)
	}
	return set, w
}

// priceUser returns user u's column of largest reduced cost under the LP
// duals y (user rows, then event rows): the set maximizing
// w(u,S) − Σ_{v∈S} y_{|U|+v}, and that maximum less y_u. When no set has a
// positive adjusted weight it returns nil and −y_u, the empty set's value,
// and no column of u prices out.
func (pr *pricer) priceUser(u int, y []float64) ([]int, float64) {
	nu := pr.in.NumUsers()
	set, w := pr.best(u, func(v int) float64 { return y[nu+v] })
	return set, w - y[u]
}

// enumeratedPrice is priceUser's oracle: the largest adjusted weight over
// Enumerate's whole family of u (0 for the empty set), less y_u.
func enumeratedPrice(in *model.Instance, conf *conflict.Matrix, u int, y []float64) float64 {
	nu := in.NumUsers()
	wc := in.Weights()
	usr := &in.Users[u]
	r := admissible.Enumerate(usr.Bids, usr.Capacity, conf, func(v int) float64 { return wc.Of(u, v) - y[nu+v] },
		admissible.Config{MaxSetsPerUser: -1})
	best := 0.0
	for _, s := range r.Sets {
		best = max(best, s.Weight)
	}
	return best - y[u]
}

// requirePriceMatchesEnumerate checks priceUser against the enumerated
// maximum for every user of in under duals y: the values agree to 1e-9, and
// the priced set is admissible and weighs what priceUser says.
func requirePriceMatchesEnumerate(t *testing.T, label string, in *model.Instance, y []float64) {
	t.Helper()
	pr := newPricer(in)
	nu := in.NumUsers()
	for u := 0; u < nu; u++ {
		set, got := pr.priceUser(u, y)
		want := enumeratedPrice(in, pr.conf, u, y)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s: user %d priced %.17g, Enumerate's family %.17g", label, u, got, want)
		}
		if set == nil {
			continue
		}
		if len(set) > in.Users[u].Capacity {
			t.Fatalf("%s: user %d priced %v over capacity %d", label, u, set, in.Users[u].Capacity)
		}
		w := 0.0
		for i, v := range set {
			if !model.Contains(in.Users[u].Bids, v) {
				t.Fatalf("%s: user %d priced %v with unbid event %d", label, u, set, v)
			}
			for _, x := range set[:i] {
				if pr.conf.Conflicts(x, v) {
					t.Fatalf("%s: user %d priced %v with conflicting events %d, %d", label, u, set, x, v)
				}
			}
			w += in.Weights().Of(u, v) - y[nu+v]
		}
		if w-y[u] != got {
			t.Fatalf("%s: user %d priced %v at %.17g, its adjusted weight is %.17g", label, u, set, got, w-y[u])
		}
	}
}

// lpDuals returns the duals of in's benchmark LP.
func lpDuals(t testing.TB, in *model.Instance) []float64 {
	t.Helper()
	p, err := NewPlanner(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	return append([]float64(nil), p.sol.Y...)
}

// raisedDuals returns in's LP duals with every event dual raised by a
// seeded draw from [0, 2·w̄), w̄ the mean pair weight, so that many adjusted
// weights w(u,v) − y_v go negative: Searcher's bound then stops at the
// first non-positive candidate.
func raisedDuals(t testing.TB, in *model.Instance, seed int64) []float64 {
	t.Helper()
	y := lpDuals(t, in)
	sum, n := 0.0, 0
	for u := range in.Users {
		for _, w := range in.Weights().Row(u) {
			sum += w
			n++
		}
	}
	mean := sum / float64(max(n, 1))
	rng := xrand.New(seed)
	for v := 0; v < in.NumEvents(); v++ {
		y[in.NumUsers()+v] += 2 * mean * rng.Float64()
	}
	return y
}

// TestPriceUserMatchesEnumerate pins the pricing oracle column generation
// rests on: for every user, priceUser's reduced cost is the maximum over
// Enumerate's family, under the benchmark LP's own duals and under duals
// raised until adjusted weights go negative. The fixtures are the tiny and
// contended instances, six random ones, two synthetic and one Meetup
// instance.
func TestPriceUserMatchesEnumerate(t *testing.T) {
	fixtures := []struct {
		name string
		in   *model.Instance
	}{
		{"tiny", tinyInstance()},
		{"contended", contendedInstance()},
		{"synthetic-40", syntheticInstance(workload.SyntheticConfig{Seed: 1, NumUsers: 40, NumEvents: 12})(t)},
		{"synthetic-300", syntheticInstance(workload.SyntheticConfig{Seed: 4, NumUsers: 300, NumEvents: 30})(t)},
		{"meetup-120", meetupFixture(t, 120, 40)},
	}
	for seed := int64(1); seed <= 6; seed++ {
		fixtures = append(fixtures, struct {
			name string
			in   *model.Instance
		}{"random", randomInstance(seed)})
	}
	for i, f := range fixtures {
		in := f.in
		requirePriceMatchesEnumerate(t, f.name+"/lp-duals", in, lpDuals(t, in))
		requirePriceMatchesEnumerate(t, f.name+"/raised-duals", in, raisedDuals(t, in, int64(i)+1))
	}
}

// meetupFixture is a Meetup instance of the given size.
func meetupFixture(t testing.TB, users, events int) *model.Instance {
	t.Helper()
	in, err := workload.Meetup(workload.MeetupConfig{Seed: 1, NumUsers: users, NumEvents: events})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// FuzzPriceUser checks priceUser against Enumerate on seeded instances of
// each workload family (family 0 synthetic, 1 Meetup, 2 the random property
// instances), under LP duals raised by a seeded amount.
func FuzzPriceUser(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, family uint8) {
		var in *model.Instance
		var err error
		switch family % 3 {
		case 0:
			in, err = workload.Synthetic(workload.SyntheticConfig{Seed: seed, NumUsers: 20 + int(uint64(seed)%40), NumEvents: 10})
		case 1:
			in, err = workload.Meetup(workload.MeetupConfig{Seed: seed, NumUsers: 20 + int(uint64(seed)%40), NumEvents: 16})
		default:
			in = randomInstance(seed)
		}
		if err != nil {
			t.Skip(err)
		}
		requirePriceMatchesEnumerate(t, "fuzz", in, raisedDuals(t, in, seed))
	})
}

// cgMaster is a column-generation master of LP (1)-(4) and its optimum.
type cgMaster struct {
	in     *model.Instance
	conf   *conflict.Matrix
	solver *lp.Solver
	cols   [][]int32 // per user: its master columns, in the order added
	sol    *lp.Solution
	rounds int // pricing passes that added columns
}

// columnGeneration solves the benchmark LP over every user's whole
// admissible family without enumerating it. The master starts from each
// user's heaviest set; each round prices every user on the master's duals
// and adds every column whose reduced cost exceeds cgTol through one warm
// Resolve; it stops when no user prices out. The caller closes the
// master's solver.
func columnGeneration(t testing.TB, in *model.Instance, opt Options) *cgMaster {
	t.Helper()
	if err := opt.resolve(); err != nil {
		t.Fatal(err)
	}
	pr := newPricer(in)
	nu := in.NumUsers()
	m := &cgMaster{in: in, conf: pr.conf, solver: lp.NewSolver(opt.lpConfig()), cols: make([][]int32, nu)}
	prob := newBenchmarkLP(in)
	zero := make([]float64, nu+in.NumEvents())
	var rows []int
	for u := 0; u < nu; u++ {
		set, _ := pr.priceUser(u, zero)
		if set == nil {
			continue
		}
		rows = appendColumn(rows[:0], nu, u, set)
		m.cols[u] = append(m.cols[u], int32(prob.NumCols()))
		prob.AddColumn(setWeight(in, u, set), rows)
	}
	sol, err := m.solver.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	for {
		var d lp.ProblemDelta
		for u := 0; u < nu; u++ {
			set, rc := pr.priceUser(u, sol.Y)
			if rc <= cgTol || set == nil {
				continue
			}
			m.cols[u] = append(m.cols[u], int32(m.solver.Problem().NumCols()+len(d.AddCols)))
			d.AddCols = append(d.AddCols, lp.Column{Rows: appendColumn(nil, nu, u, set)})
			d.AddC = append(d.AddC, setWeight(in, u, set))
		}
		if len(d.AddCols) == 0 {
			break
		}
		if sol, err = m.solver.Resolve(d); err != nil {
			t.Fatal(err)
		}
		if m.solver.Renumbering() != nil {
			t.Fatal("column generation removed no column, yet the solver renumbered")
		}
		m.rounds++
	}
	m.sol = sol
	return m
}

// appendColumn appends the rows of user u's column for set to dst: u's row,
// then the set's event rows.
func appendColumn(dst []int, nu, u int, set []int) []int {
	dst = append(dst, u)
	for _, v := range set {
		dst = append(dst, nu+v)
	}
	return dst
}

// setWeight is w(u,S), summed in the set's order.
func setWeight(in *model.Instance, u int, set []int) float64 {
	w := 0.0
	for _, v := range set {
		w += in.Weights().Of(u, v)
	}
	return w
}

// round samples, repairs and scores the master's optimum at the options'
// α through the planner's kernels: drawColumns → columnPicks → finish.
func (m *cgMaster) round(opt Options) *Result {
	if err := opt.resolve(); err != nil {
		panic(err)
	}
	drawn := make([]int, len(m.cols))
	drawColumns(m.cols, m.sol.X, nil, drawn, opt.Alpha, opt.Seed, opt.Workers)
	return finish(m.in, m.conf, columnPicks(m.solver.Problem(), drawn), m.solver.LiveColumns(), m.sol,
		opt, xrand.New(opt.Seed), 0)
}

// TestColumnGenerationMatchesLPPacking pins column generation's master
// against the enumerated LP. On untruncated instances the two optima agree
// to 1e-9 relative. On Meetup-400, where LPPacking truncates 11 users'
// families, the master solves the whole LP and its optimum must be at least
// the truncated one; the truncation leaves out no column that prices out,
// so the two agree to round-off, and the check allows 1e-12 relative.
// Every rounded master arrangement is feasible. Values (LPPacking's
// objective, the master's difference from it, its columns and the pricing
// rounds that added columns):
//
//	synthetic-40    50.490971  +7.1e-15     50 columns  1 round
//	synthetic-600  685.29166   +2.3e-13  1,381 columns  5 rounds
//	tall-2400     2826.1644    +4.6e-12  3,601 columns  4 rounds
//	meetup-400     903.32409   −1.1e-13    436 columns  2 rounds
func TestColumnGenerationMatchesLPPacking(t *testing.T) {
	for _, tc := range []struct {
		name      string
		in        func(*testing.T) *model.Instance
		truncated bool
	}{
		{"synthetic-40", syntheticInstance(workload.SyntheticConfig{Seed: 1, NumUsers: 40, NumEvents: 12}), false},
		{"synthetic-600", syntheticInstance(workload.SyntheticConfig{Seed: 2, NumUsers: 600, NumEvents: 60}), false},
		{"tall-2400", tallDantzigInstance, false},
		{"meetup-400", meetupInstance, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in(t)
			opt := Options{Seed: 1}
			ref, err := LPPacking(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.TruncatedUsers > 0; got != tc.truncated {
				t.Fatalf("LPPacking truncated %d users", ref.TruncatedUsers)
			}
			m := columnGeneration(t, in, opt)
			defer m.solver.Release()
			obj := m.sol.Objective
			t.Logf("LP %.8g, master %.8g (%+.3g), %d columns, %d rounds", ref.LPObjective, obj, obj-ref.LPObjective,
				m.solver.LiveColumns(), m.rounds)
			if tc.truncated {
				if obj < ref.LPObjective*(1-1e-12) {
					t.Fatalf("master %.17g below the truncated LP's %.17g", obj, ref.LPObjective)
				}
			} else if math.Abs(obj-ref.LPObjective) > 1e-9*ref.LPObjective {
				t.Fatalf("master %.17g, LPPacking's LP %.17g", obj, ref.LPObjective)
			}
			res := m.round(opt)
			if err := model.Validate(in, res.Arrangement); err != nil {
				t.Fatal(err)
			}
			if res.Utility > obj*(1+1e-9) {
				t.Fatalf("rounded utility %.17g above the master's optimum %.17g", res.Utility, obj)
			}
		})
	}
}
