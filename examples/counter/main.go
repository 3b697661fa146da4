// Counter: the paper's Section-4 microbenchmark as a standalone program.
// It runs the worst protocol (increment on a shared full page) and the
// best (disjoint pages, one data-driven) side by side and prints the
// figure rows, showing why the final protocol wins on every axis.
package main

import (
	"fmt"
	"log"
	"time"

	"mether/internal/protocols"
	"mether/internal/workload"
)

func main() {
	const target = 512
	for _, p := range []protocols.Protocol{protocols.P1FullPage, protocols.P5Final} {
		r, err := protocols.Run(protocols.Config{Protocol: p, Target: target, Options: workload.Options{Seed: 1}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (count to %d)\n", r.Protocol, target)
		fmt.Printf("  wallclock        %v\n", r.Wall.Round(time.Millisecond))
		fmt.Printf("  user time        %v\n", r.User.Round(time.Millisecond))
		fmt.Printf("  sys time         %v\n", r.SysTotal().Round(time.Millisecond))
		fmt.Printf("  network load     %.1f kB/s (%d packets)\n", r.NetBytesPerSec/1000, r.Packets)
		fmt.Printf("  ctx switches     %.1f per addition\n", r.CtxPerAdd)
		fmt.Printf("  space            %d page(s)\n", r.SpacePages)
		fmt.Printf("  fault latency    %v\n", r.LatMean.Round(100*time.Microsecond))
		fmt.Printf("  losses/wins      %.1f\n", r.LossWin)
	}
	fmt.Println("\nThe final protocol trades one extra page for an order of magnitude")
	fmt.Println("less host load, network load and latency — the paper's conclusion.")
}
