// Online: users register on the platform one at a time and must be answered
// immediately — the online variant of IGEPA. This example measures the
// price of onlineness: the online greedy and threshold policies against the
// offline LP-packing value and the LP objective (an upper bound unless
// admissible sets were truncated), over several random arrival orders.
package main

import (
	"fmt"
	"log"

	"github.com/ebsn/igepa"
	"github.com/ebsn/igepa/internal/xrand"
)

func main() {
	in, err := igepa.Synthetic(igepa.SyntheticConfig{
		Seed: 5, NumEvents: 50, NumUsers: 500,
		MaxEventCap: 8, MaxUserCap: 3, // scarce seats: order matters
	})
	if err != nil {
		log.Fatal(err)
	}

	offline, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	bound := "LP upper bound"
	if offline.TruncatedUsers > 0 {
		bound = fmt.Sprintf("LP objective, not an upper bound: %d users' admissible sets truncated", offline.TruncatedUsers)
	}
	fmt.Printf("offline LP-packing: %.2f (%s: %.2f)\n\n", offline.Utility, bound, offline.LPObjective)

	fmt.Println("arrival   online-greedy   threshold(τ=0.5,g=0.3)   greedy/offline")
	fmt.Println("--------------------------------------------------------------------")
	rng := xrand.New(17)
	sumG, sumT := 0.0, 0.0
	const streams = 5
	for s := 0; s < streams; s++ {
		order := rng.Perm(in.NumUsers())

		g, err := igepa.OnlineGreedy(in, order)
		if err != nil {
			log.Fatal(err)
		}
		if err := igepa.Validate(in, g); err != nil {
			log.Fatal(err)
		}
		th, err := igepa.OnlineThreshold(in, order, 0.5, 0.3)
		if err != nil {
			log.Fatal(err)
		}
		ug, ut := igepa.Utility(in, g), igepa.Utility(in, th)
		sumG += ug
		sumT += ut
		fmt.Printf("stream %d  %-15.2f %-25.2f %.3f\n", s, ug, ut, ug/offline.Utility)
	}
	fmt.Printf("\nmean over %d streams: greedy %.2f, threshold %.2f (offline %.2f)\n",
		streams, sumG/streams, sumT/streams, offline.Utility)
	fmt.Println("the gap to offline is the competitive cost of deciding at arrival time")
}
