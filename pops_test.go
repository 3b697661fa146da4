package mether

import (
	"testing"
	"time"
)

// TestFabricInstantsPopOnce: on a 96-host fabric every purge is 95
// deliveries at one instant, and those raise 95 interrupts one interrupt
// cost later and wake 95 servers into equal slices; each such lock-step
// instant is one kernel event (sim.Kernel.AfterCoalesced), so under one
// callback in ten is a kernel event of its own. The stationary-owner
// loop here is the benchmark's snoop-fab-96 cell cut to four updates a
// host.
func TestFabricInstantsPopOnce(t *testing.T) {
	const hosts = 96
	w := NewWorld(Config{Hosts: hosts, Pages: hosts, Seed: 1, Medium: MediumConfig{Kind: MediumFabric}})
	defer w.Shutdown()
	owners := make([]int, hosts)
	for i := range owners {
		owners[i] = i
	}
	seg, err := w.CreateSegmentOwners("owned", owners)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for i := 0; i < hosts; i++ {
		i := i
		w.Spawn(i, "stat", func(env *Env) {
			own, err := env.Attach(seg.CapRW(), RW)
			if err != nil {
				t.Error(err)
				return
			}
			a := own.Addr(i, 0).Short()
			for n := 0; n < 4; n++ {
				env.Compute(50 * time.Microsecond)
				v, _ := own.Load32(a)
				if own.Store32(a, v+1) != nil || own.Purge(a) != nil {
					t.Errorf("host %d: update %d failed", i, n)
					return
				}
				updates++
			}
		})
	}
	w.Run()
	events, c := w.k.Dispatched(), w.k.Counters()
	t.Logf("%d updates: %d callbacks in %d kernel events", updates, events, c.Pops)
	if updates != 4*hosts || events < 100000 || c.Pops >= events/10 {
		t.Errorf("%d updates: %d callbacks in %d kernel events, want %d updates and under one event in ten of at least 100000",
			updates, events, c.Pops, 4*hosts)
	}
}

// TestSpinWorldContinues: in the two-host worlds of
// TestSpin32MatchesLoadLoop the spinners' looks continue in the kernel's
// repeat lane, and only a spin's last look runs as a callback, popped or
// batched. In the counter world Figures 4-9 are made of, two stealers each
// spin until the word is theirs and every increment takes the page from
// under the other's spin: about a third of its events are ordinary ones —
// the faults, frames and server wakes of those steals, and each spin's
// last look — so a third is its floor (before the lane every event was a
// callback). A reader spinning on
// a page its peer publishes to four times a second spins alone between
// ordinary events: at most one event in a hundred runs as a callback.
func TestSpinWorldContinues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clients [2]func(*Env, Capability, spinFunc, func(string)) error
		percent uint64 // callbacks per hundred dispatched events, at most
	}{
		{"stealers", [2]func(*Env, Capability, spinFunc, func(string)) error{spinStealer(0, 400), spinStealer(1, 400)}, 34},
		{"writer and reader", [2]func(*Env, Capability, spinFunc, func(string)) error{spinWriter(8, 250*time.Millisecond), spinReader(8, 0)}, 1},
	} {
		var w *World
		spinWorld{prepare: func(built *World) { w = built }, clients: tc.clients}.run(t, spin32)
		events, c := w.k.Dispatched(), w.k.Counters()
		t.Logf("%s: %d events: %d popped, %d batched, %d skipped", tc.name, events, c.Pops, c.Batched, c.Skipped)
		if events < 10000 || (c.Pops+c.Batched)*100 > tc.percent*events {
			t.Errorf("%s: %d events, %d popped and %d batched: want at most %d in a hundred of at least 10000 run as a callback",
				tc.name, events, c.Pops, c.Batched, tc.percent)
		}
	}
}
