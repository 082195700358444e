package online

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// enumerateBest is how GreedyPlanner decided an arrival before
// admissible.Searcher: enumerate every admissible set of the open bids and
// keep the first strictly heaviest. It stays here as the oracle the search
// is held to. truncated reports that MaxSetsPerUser cut the enumeration
// short, so best is only the heaviest of the sets that were kept.
func enumerateBest(p *GreedyPlanner, u int) (best []int, truncated bool) {
	usr := &p.in.Users[u]
	var open []int
	for _, v := range usr.Bids {
		if p.load[v] < p.budget[v] {
			open = append(open, v)
		}
	}
	wc := p.in.Weights()
	w := func(v int) float64 { return wc.Of(u, v) }
	r := admissible.Enumerate(open, usr.Capacity, p.conf, w, admissible.Config{MaxSetsPerUser: p.maxSets})
	bestW := 0.0
	for _, s := range r.Sets {
		if s.Weight > bestW {
			bestW = s.Weight
			best = s.Events
		}
	}
	return best, r.Truncated
}

// TestArriveMatchesEnumerationOracle replays a cancel-and-rebid stream (every
// user arrives twice in a seeded order, the arrival half a round back
// cancels, so events fill up and reopen) on the Meetup instance and three
// synthetic ones, and requires every single decision to equal the
// enumeration oracle's on the same planner state, with two exceptions that
// are counted and logged. Meetup weights tie exactly (events of one group
// share an interest score), and between sets of equal weight the oracle's
// pick follows the rounding drift of Enumerate's running sum, which depends
// on every node visited and so cannot survive pruning: there the search
// must return a set of the same weight. And where the oracle's enumeration
// hits the MaxSetsPerUser guard rail (Meetup users with 16 bids and capacity
// 16), the search, which spends its budget only on subtrees that can still
// win, may find a heavier set than the oracle kept, never a lighter one.
func TestArriveMatchesEnumerationOracle(t *testing.T) {
	type instance struct {
		name string
		in   *model.Instance
		err  error
	}
	var instances []instance
	if !testing.Short() { // ~1300 sets per Meetup user: the oracle is the slow side
		in, err := workload.Meetup(workload.MeetupConfig{Seed: 1})
		instances = append(instances, instance{"meetup", in, err})
	}
	for _, seed := range []int64{1, 7, 8} {
		in, err := workload.Synthetic(workload.SyntheticConfig{NumUsers: 1500, NumEvents: 200, Seed: seed})
		instances = append(instances, instance{fmt.Sprintf("synthetic seed %d", seed), in, err})
	}
	for _, inst := range instances {
		name, in := inst.name, inst.in
		if inst.err != nil {
			t.Fatal(inst.err)
		}
		p := NewGreedy(in, 0)
		order := xrand.New(3).Perm(in.NumUsers())
		var held [][]int
		wc := in.Weights()
		weigh := func(u int, set []int) float64 {
			total := 0.0
			for _, v := range set {
				total += wc.Of(u, v)
			}
			return total
		}
		decisions, narrowed, ties, truncated, heavier := 0, 0, 0, 0, 0
		for round := 0; round < 2; round++ {
			for _, u := range order {
				want, cut := enumerateBest(p, u)
				got := p.Arrive(u)
				switch {
				case cut:
					truncated++
					have, floor := weigh(u, got), weigh(u, want)
					if have < floor*(1-1e-12) {
						t.Fatalf("%s: arrival %d (user %d): Arrive = %v weighs %v, the truncated oracle's %v weighs %v",
							name, decisions, u, got, have, want, floor)
					}
					if have > floor*(1+1e-12) {
						heavier++
					}
				case !slices.Equal(got, want):
					ties++
					if have, best := weigh(u, got), weigh(u, want); math.Abs(have-best) > 1e-12*best {
						t.Fatalf("%s: arrival %d (user %d): Arrive = %v weighs %v, enumeration oracle = %v weighs %v",
							name, decisions, u, got, have, want, best)
					}
				}
				decisions++
				if len(p.open) < len(in.Users[u].Bids) {
					narrowed++
				}
				held = append(held, got)
				if len(held) > len(order)/2 {
					p.Release(held[0])
					held = held[1:]
				}
			}
		}
		t.Logf("%s: %d decisions, %d with an event full, %d of equal weight to the oracle's, %d with a truncated oracle (%d heavier than it)",
			name, decisions, narrowed, ties, truncated, heavier)
		if narrowed == 0 {
			t.Errorf("%s: none of %d arrivals found an event full: the replay should exhaust some", name, decisions)
		}
	}
}

// TestArriveAllocatesOnlyItsResult pins the steady-state cost of a decision:
// one allocation, the returned slice, for greedy and threshold alike.
func TestArriveAllocatesOnlyItsResult(t *testing.T) {
	in, err := workload.Synthetic(workload.SyntheticConfig{NumUsers: 300, NumEvents: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	planners := map[string]*GreedyPlanner{
		"greedy":    NewGreedy(in, 0),
		"threshold": NewThreshold(in, 0.4, 0.3, 0),
	}
	for name, p := range planners {
		for u := 0; u < in.NumUsers(); u++ { // grow the scratch to its working size
			p.Release(p.Arrive(u))
		}
		u := 0
		n := testing.AllocsPerRun(in.NumUsers(), func() {
			got := p.Arrive(u % in.NumUsers())
			if len(got) == 0 {
				t.Fatalf("%s: user %d was granted nothing on an empty platform", name, u)
			}
			p.Release(got)
			u++
		})
		if n != 1 {
			t.Errorf("%s: Arrive allocates %v times per decision, want 1 (the returned slice)", name, n)
		}
	}
}
