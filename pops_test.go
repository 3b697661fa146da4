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
	t.Logf("%d updates: %d callbacks in %d kernel events, %d continued", updates, events, c.Pops, c.Continued)
	if updates != 4*hosts || events < 100000 || c.Pops >= events/10 {
		t.Errorf("%d updates: %d callbacks in %d kernel events, want %d updates and under one event in ten of at least 100000",
			updates, events, c.Pops, 4*hosts)
	}
	// Slice ends here fall inside lock-step batches or behind other
	// hosts' events: next to none is the kernel's very next event.
	if c.Continued >= events/1000 {
		t.Errorf("%d of %d callbacks continued inline, want under one in a thousand", c.Continued, events)
	}
}

// TestSpinWorldContinues: the two-host counter world Figures 4-9 are made
// of has no lock-step instants to merge, but most of the time one client
// spins alone while the other waits, so the end of each of its looks is
// the kernel's very next event: over half the callbacks run inline
// (sim.Kernel.Continue) instead of being filed and popped.
func TestSpinWorldContinues(t *testing.T) {
	var w *World
	spinWorld{prepare: func(built *World) { w = built }, clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
		spinStealer(0, 400), spinStealer(1, 400)}}.run(t, func(_ *Env, m *Mapping, a Addr, every time.Duration, again func(uint32) bool) (uint32, error) {
		return m.Spin32(a, every, again)
	})
	events, c := w.k.Dispatched(), w.k.Counters()
	t.Logf("%d callbacks: %d kernel events, %d continued", events, c.Pops, c.Continued)
	if events < 10000 || c.Continued <= events/2 {
		t.Errorf("%d callbacks, %d continued: want over half of at least 10000 run inline", events, c.Continued)
	}
}
