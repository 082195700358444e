// Quickstart: generate a small synthetic EBSN instance, run LP-packing, and
// inspect the arrangement — the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"github.com/ebsn/igepa"
)

func main() {
	// A small event-based social network: 12 events, 40 users, capacities
	// and conflicts drawn per the paper's Table I generator.
	in, err := igepa.Synthetic(igepa.SyntheticConfig{
		Seed:        42,
		NumEvents:   12,
		NumUsers:    40,
		MaxEventCap: 6,
		MaxUserCap:  3,
		PConflict:   0.3,
		PFriend:     0.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := igepa.ComputeStats(in)
	fmt.Printf("instance: %d events, %d users, %.1f bids/user, conflict rate %.2f\n\n",
		st.NumEvents, st.NumUsers, st.MeanBidsPerUser, st.ConflictRate)

	// LP-packing: solve the benchmark LP, sample admissible sets, repair.
	res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Unless admissible sets were truncated, the LP optimum upper-bounds the
	// best possible arrangement (Lemma 1), so we get a per-run quality
	// certificate for free.
	if res.TruncatedUsers == 0 {
		fmt.Printf("LP upper bound:     %.3f\n", res.LPObjective)
		fmt.Printf("LP-packing utility: %.3f (≥ %.0f%% of optimal)\n\n",
			res.Utility, 100*res.Utility/res.LPObjective)
	} else {
		fmt.Printf("LP objective:       %.3f (not an upper bound: %d users' admissible sets truncated)\n",
			res.LPObjective, res.TruncatedUsers)
		fmt.Printf("LP-packing utility: %.3f\n\n", res.Utility)
	}

	// Compare with the three baselines from the paper's evaluation.
	for _, name := range []string{"greedy", "random-u", "random-v"} {
		arr, err := igepa.Solve(in, name, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s utility: %.3f\n", name, igepa.Utility(in, arr))
	}

	// Every arrangement is independently re-checkable.
	if err := igepa.Validate(in, res.Arrangement); err != nil {
		log.Fatalf("infeasible arrangement: %v", err)
	}
	fmt.Println("\nfirst assignments (user -> events):")
	shown := 0
	for u, events := range res.Arrangement.Sets {
		if len(events) == 0 {
			continue
		}
		fmt.Printf("  user %2d -> %v\n", u, events)
		if shown++; shown == 8 {
			break
		}
	}
}
