package core

import (
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
)

// BenchmarkServerSnoop measures the receive path end to end in real
// time: an owner on an 8-host bus updates and purges a page whose short
// copy is resident everywhere, so every purge is one short data
// broadcast snooped, charged for and installed by seven user-level
// servers. One op is one receiver's share of one broadcast — interrupt,
// wake, dispatch, the receive charge, the refresh, back to sleep — plus
// a seventh of the owner's send, so ns/op is the cost the snoop-bound
// cells pay per (frame, host) and allocs/op must stay zero.
func BenchmarkServerSnoop(b *testing.B) {
	const hosts = 8
	c := newTestCluster(b, hosts, ethernet.DefaultParams(), fastConfig(4))
	c.drivers[0].CreatePage(0)
	addr := NewAddr(0, 0).Short()
	for i := 1; i < hosts; i++ {
		d := c.drivers[i]
		c.spawn(i, "reader", func(p *host.Proc) {
			_ = d.MapIn(p, RO, 0)
			_, _ = d.Load(p, RO, addr, 4)
		})
	}
	c.k.RunUntil(time.Second)
	purges := (b.N + hosts - 2) / (hosts - 1)
	d0 := c.drivers[0]
	c.spawn(0, "owner", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		for i := 0; i < purges; i++ {
			_ = d0.Store(p, RW, addr, 4, uint64(i))
			_ = d0.Purge(p, RW, addr)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	c.k.Run()
	b.StopTimer()
	var refreshes uint64
	for _, d := range c.drivers[1:] {
		refreshes += d.Metrics().Refreshes
	}
	if want := uint64(purges * (hosts - 1)); refreshes < want {
		b.Fatalf("%d refreshes for %d purges on %d receivers: the broadcasts were not snooped", refreshes, purges, hosts-1)
	}
}

// BenchmarkSpin32 measures one resident look of a Spin on a two-host
// world — the waiter's poll of the barrier and counter cells: the end of
// a CPU slice, the access check, the load and the predicate, all inside
// one kernel callback. The reader's coroutine is switched to twice in
// the whole run, so ns/op is the engine's cost per poll and allocs/op
// must stay zero.
func BenchmarkSpin32(b *testing.B) {
	c := newTestCluster(b, 2, ethernet.DefaultParams(), fastConfig(4))
	c.drivers[0].CreatePage(0)
	addr := NewAddr(0, 0).Short()
	d := c.drivers[1]
	looks := 0
	var poll Poll
	var err error
	c.spawn(1, "reader", func(p *host.Proc) {
		if err = d.MapIn(p, RO, 0); err == nil {
			_, err = d.Spin32(p, &poll, RO, addr, 50*time.Microsecond, func(uint32) bool {
				looks++
				return looks < b.N
			})
		}
	})
	c.k.RunUntil(time.Second) // the map-in fault and the first looks
	b.ReportAllocs()
	b.ResetTimer()
	c.k.Run()
	b.StopTimer()
	if err != nil || looks < b.N {
		b.Fatalf("%d looks of %d, err %v", looks, b.N, err)
	}
	if r := c.k.Counters().Resumes; r > 8 {
		b.Fatalf("%d coroutine resumes for %d looks: the poll is back on the coroutine", r, looks)
	}
}
