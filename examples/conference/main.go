// Conference: build an IGEPA instance by hand — a two-day conference with
// parallel session tracks (time-overlap conflicts), attendees with topic
// interests (cosine similarity over topic vectors), and a collaboration
// graph — then let LP-packing build the seating plan.
//
// This example shows how to assemble an Instance from your own data instead
// of the built-in generators: custom events, custom conflict semantics,
// custom interest function.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/ebsn/igepa"
)

// topics: 0=systems 1=ml 2=theory 3=databases
var sessionNames = []string{
	"Storage Engines", "Neural Ranking", "Complexity I", "Query Optimization",
	"Distributed KV", "LLM Serving", "Complexity II", "Streaming SQL",
	"Consensus", "AutoML",
}

func main() {
	// Ten sessions over two days, three parallel rooms: sessions in the
	// same slot overlap in time and therefore conflict.
	// Slot s runs [s·100, s·100+90) in conference minutes.
	slotOf := []int64{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	topicOf := [][]float64{
		{1, 0, 0, 0.3}, {0, 1, 0, 0}, {0, 0.2, 1, 0}, {0.2, 0, 0, 1},
		{1, 0, 0, 0.5}, {0.3, 1, 0, 0}, {0, 0, 1, 0}, {0.4, 0, 0, 1},
		{1, 0, 0.3, 0}, {0, 1, 0, 0.2},
	}
	events := make([]igepa.Event, len(sessionNames))
	for v := range events {
		events[v] = igepa.Event{
			Capacity: 3, // small seminar rooms
			Attrs:    topicOf[v],
			Start:    slotOf[v] * 100,
			End:      slotOf[v]*100 + 90,
		}
	}

	// Twelve attendees with topic profiles; collaboration edges raise the
	// interaction degree of well-connected researchers.
	profiles := [][]float64{
		{1, 0, 0, 0.2}, {0.8, 0, 0, 0.6}, {0, 1, 0, 0}, {0, 0.9, 0.3, 0},
		{0, 0, 1, 0}, {0.1, 0, 0.9, 0}, {0.3, 0, 0, 1}, {0, 0.2, 0, 1},
		{1, 0.5, 0, 0}, {0, 0, 0.5, 0.8}, {0.6, 0.6, 0, 0}, {0, 0, 1, 0.4},
	}
	collaborations := [][2]int{
		{0, 1}, {0, 8}, {1, 6}, {2, 3}, {2, 9}, {3, 10}, {4, 5}, {4, 11},
		{5, 11}, {6, 7}, {8, 10}, {9, 11}, {0, 10}, {3, 9},
	}
	degree := make([]int, len(profiles))
	for _, e := range collaborations {
		degree[e[0]]++
		degree[e[1]]++
	}

	users := make([]igepa.User, len(profiles))
	for u := range users {
		users[u] = igepa.User{
			Capacity: 4, // sessions one can realistically attend
			Attrs:    profiles[u],
			Bids:     bidsFor(profiles[u], topicOf),
			Degree:   degree[u],
		}
	}

	in := &igepa.Instance{
		Events: events,
		Users:  users,
		// conflict = same time slot (intervals overlap)
		Conflicts: func(v, w int) bool {
			return events[v].Start < events[w].End && events[w].Start < events[v].End
		},
		// interest = topical fit
		Interest: func(u, v int) float64 {
			return cosine(profiles[u], topicOf[v])
		},
		Beta: 0.6, // interest matters slightly more than networking here
	}
	in.RebuildBidders()
	if err := in.Check(); err != nil {
		log.Fatal(err)
	}

	res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := igepa.Validate(in, res.Arrangement); err != nil {
		log.Fatal(err)
	}

	bound := "LP upper bound"
	if res.TruncatedUsers > 0 {
		bound = fmt.Sprintf("LP objective, not an upper bound: %d users' admissible sets truncated", res.TruncatedUsers)
	}
	fmt.Printf("conference plan (utility %.3f, %s: %.3f)\n\n", res.Utility, bound, res.LPObjective)
	for u, sessions := range res.Arrangement.Sets {
		fmt.Printf("attendee %2d (deg %d): ", u, degree[u])
		if len(sessions) == 0 {
			fmt.Println("-")
			continue
		}
		for i, v := range sessions {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s (slot %d)", sessionNames[v], slotOf[v])
		}
		fmt.Println()
	}

	fmt.Println("\nsession loads:")
	load := make([]int, len(events))
	for _, p := range res.Arrangement.Pairs() {
		load[p.Event]++
	}
	for v, n := range load {
		fmt.Printf("  %-18s %d/%d\n", sessionNames[v], n, events[v].Capacity)
	}
}

// bidsFor returns the sessions whose topic fit clears a bidding threshold —
// the "explicit intention" model of the paper: users only ever get sessions
// they asked for.
func bidsFor(profile []float64, topics [][]float64) []int {
	var bids []int
	for v := range topics {
		if cosine(profile, topics[v]) > 0.35 {
			bids = append(bids, v)
		}
	}
	return bids
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if c < 0 {
		return 0
	}
	return c
}
