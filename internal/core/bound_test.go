package core

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/baselines"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// boundTol is the relative slack of the bound checks. L(y) is a float64
// sum, and where the LP is tight the bound and the optimum it bounds agree
// to the last bits: on the ratio study's instances L(y) falls up to
// 2.2·10⁻¹⁶ relative below OPT. A bound that holds under rounding is ROADMAP
// item 21E.
const boundTol = 1e-12

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// lagrangianBound returns L(y) = Σ_v c_v·max(0, y_v) + Σ_u max(0, max_S
// Σ_{v∈S}(w(u,v) − max(0, y_v))) for event duals y (y[v] prices event v),
// an upper bound on the optimal utility for any y: relaxing every event's
// capacity row with multiplier max(0, y_v) leaves one independent
// heaviest-set problem per user. It reads the instance's unperturbed
// capacities and no user dual, and it sums in a fixed order: the event
// terms by index, then the user terms by index, each user's set in
// ascending event order.
func lagrangianBound(in *model.Instance, y []float64) float64 {
	pr := newPricer(in)
	dual := func(v int) float64 { return max(0, y[v]) }
	l := 0.0
	for v := range in.Events {
		l += float64(in.Events[v].Capacity) * dual(v)
	}
	for u := range in.Users {
		_, w := pr.best(u, dual)
		l += max(0, w)
	}
	return l
}

// ratioInstances are the ratio study's 20 instances at its default seed 1
// (eval.RunRatio).
func ratioInstances(t *testing.T) []*model.Instance {
	t.Helper()
	var ins []*model.Instance
	for i := 0; i < 20; i++ {
		in, err := workload.Synthetic(workload.SyntheticConfig{
			Seed:      1 + int64(i)*104729,
			NumEvents: 6 + i%5, NumUsers: 6 + (i*3)%7,
			MaxEventCap: 2, MaxUserCap: 3,
			MinBids: 2, MaxBids: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins
}

// TestLagrangianBoundAboveOptimal checks L(y), at the benchmark LP's event
// duals, against the exact optimum of baselines.Optimal on the ratio
// study's 20 instances and on the small fixtures (tiny, contended, and
// randomInstance seeds 1–8). The LP is tight on all of them, so L(y)
// equals OPT up to rounding: (L − OPT)/OPT spans −2.2·10⁻¹⁶ (ratio
// instance 7) to +3.4·10⁻¹⁶ (ratio instance 9).
func TestLagrangianBoundAboveOptimal(t *testing.T) {
	ins := append(ratioInstances(t), tinyInstance(), contendedInstance())
	for seed := int64(1); seed <= 8; seed++ {
		ins = append(ins, randomInstance(seed))
	}
	for i, in := range ins {
		_, opt, err := baselines.Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		l := lagrangianBound(in, lpDuals(t, in)[in.NumUsers():])
		if l < opt*(1-boundTol) {
			t.Errorf("instance %d: L(y) = %.17g below OPT %.17g", i, l, opt)
		}
	}
}

// dualObjective is Σ_i b_i·y_i over LP (1)-(4)'s rows at the instance's
// unperturbed right-hand sides: 1 per user, c_v per event.
func dualObjective(in *model.Instance, y []float64) float64 {
	nu := in.NumUsers()
	d := 0.0
	for u := 0; u < nu; u++ {
		d += y[u]
	}
	for v := range in.Events {
		d += float64(in.Events[v].Capacity) * y[nu+v]
	}
	return d
}

// TestLagrangianBoundMeetup400 checks L(y) on Meetup-400, whose LPPacking
// LP truncates 11 users' families, at two dual vectors.
//
// At the truncated LP's duals L(y) must be at least that LP's objective.
// The solver's optimum is that of its perturbed right-hand sides
// (Result.LPObjective 903.32408520331171), which no valid bound need reach:
// L(y) is 903.32381054955636, 3.0·10⁻⁷ below it. So the check is against
// the same duals' objective at the unperturbed right-hand sides, Σ b_i·y_i
// = 903.32381054955647. At LP-optimal duals each user's term is at least
// y_u, so L(y) ≥ Σ b_i·y_i, with equality unless a column the truncation
// left out prices out; here none does, and the two agree to 1.2·10⁻¹⁶.
//
// At the column-generation master's duals L(y) is within 1e-12 relative of
// the master's rounded utility, 903.32381054955567 (7.6·10⁻¹⁶): the
// arrangement is proved optimal.
func TestLagrangianBoundMeetup400(t *testing.T) {
	in := meetupInstance(t)
	nu := in.NumUsers()
	opt := Options{Seed: 1}

	p, err := NewPlanner(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	trunc, y := p.truncCount, append([]float64(nil), p.sol.Y...)
	p.Close()
	if trunc != 11 {
		t.Fatalf("LPPacking truncated %d users, want 11", trunc)
	}
	l, d := lagrangianBound(in, y[nu:]), dualObjective(in, y)
	if l < d*(1-boundTol) {
		t.Errorf("truncated LP: L(y) = %.17g below its unperturbed objective %.17g", l, d)
	}

	m := columnGeneration(t, in, opt)
	defer m.solver.Release()
	res := m.round(opt)
	l = lagrangianBound(in, m.sol.Y[nu:])
	if math.Abs(l-res.Utility) > boundTol*l {
		t.Errorf("master: L(y) = %.17g, rounded utility %.17g (%.3g relative)", l, res.Utility, (l-res.Utility)/l)
	}
}

// TestPlanWideTruncatedGapPinned pins the certificate on plan_wide's
// instance, the paper-scale Meetup (2,811 users, 3,570,714 LP columns, 83
// users truncated), as LPPacking plans it today: from the truncated LP's
// duals L(y) = 5080.8714785889224 against the seed-1 utility
// 5080.633705144066, a gap (L − utility)/L of 4.680·10⁻⁵. The truncated
// LP's own optimum, 5080.6351055450377, is below the untruncated LP's, so
// part of the gap is the truncation's. Both values are pinned to 1e-9
// relative.
func TestPlanWideTruncatedGapPinned(t *testing.T) {
	if raceEnabled {
		// ~1 GB and 12 s under the detector; the planner's parallel stages
		// race-run on the smaller instances of the other tests.
		t.Skip("paper-scale instance under the race detector")
	}
	const (
		wantBound   = 5080.8714785889224
		wantUtility = 5080.633705144066
	)
	in, err := workload.Meetup(workload.MeetupConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncatedUsers != 83 || res.LPColumns != 3_570_714 {
		t.Fatalf("%d users truncated, %d columns; want 83 and 3,570,714", res.TruncatedUsers, res.LPColumns)
	}
	l := lagrangianBound(in, p.sol.Y[in.NumUsers():])
	gap := (l - res.Utility) / l
	t.Logf("L(y) %.17g, utility %.17g, gap %.4g", l, res.Utility, gap)
	if math.Abs(l-wantBound) > 1e-9*wantBound || math.Abs(res.Utility-wantUtility) > 1e-9*wantUtility {
		t.Errorf("L(y) %.17g and utility %.17g, want %.17g and %.17g", l, res.Utility, wantBound, wantUtility)
	}
}
