package core

import (
	"fmt"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
	"mether/internal/vm"
)

// hostHops is the bridge-hop function of hosts placed on trunks by
// trunkOf, the trunks in a line: trunks a and b are |a-b| bridges apart.
func hostHops(trunkOf []int) func(a, b int) int {
	return func(a, b int) int { return max(trunkOf[a]-trunkOf[b], trunkOf[b]-trunkOf[a]) }
}

// newBridgedCluster builds a Mether cluster spanning two Ethernet trunks
// joined by a bridge: hosts 0..splitAt-1 on trunk A, the rest on trunk B.
// This is the paper's multi-bridge topology; Mether's protocol must keep
// working across it (each packet just takes the extra forwarding hop).
func newBridgedCluster(t *testing.T, n, splitAt int) *testCluster {
	t.Helper()
	c := &testCluster{k: sim.New(42)}
	busA := ethernet.NewBus(c.k, ethernet.DefaultParams())
	busB := ethernet.NewBus(c.k, ethernet.DefaultParams())
	ethernet.NewBridge(c.k, busA, busB, 2*time.Millisecond)
	c.bus = busA
	cfg := fastConfig(4)
	trunkOf := make([]int, n)
	for i := splitAt; i < n; i++ {
		trunkOf[i] = 1
	}
	for i := 0; i < n; i++ {
		bus := busA
		if trunkOf[i] == 1 {
			bus = busB
		}
		h := host.New(c.k, i, fmt.Sprintf("h%d", i), fastHostParams())
		var d *Driver
		nic := bus.AttachPort(fmt.Sprintf("h%d", i), func() { d.FrameArrived() })
		d = New(h, nic, cfg, n, hostHops(trunkOf))
		d.StartServer()
		c.hosts = append(c.hosts, h)
		c.drivers = append(c.drivers, d)
	}
	t.Cleanup(func() { c.k.Shutdown() })
	return c
}

func TestMetherAcrossBridgedTrunks(t *testing.T) {
	c := newBridgedCluster(t, 3, 2) // hosts 0,1 on trunk A; host 2 on trunk B
	d0, d2 := c.drivers[0], c.drivers[2]
	d1 := c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	// Cross-trunk ownership transfer: host 2 (other trunk) writes.
	var err0, err2 error
	c.spawn(0, "w", func(p *host.Proc) {
		if err0 = d0.MapIn(p, RW, 0); err0 != nil {
			return
		}
		err0 = d0.Store(p, RW, addr, 4, 5)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(2, "steal", func(p *host.Proc) {
		if err2 = d2.MapIn(p, RW, 0); err2 != nil {
			return
		}
		err2 = d2.Store(p, RW, addr, 4, 6)
	})
	c.run(t, 5*time.Second)
	if err0 != nil || err2 != nil {
		t.Fatalf("errors: %v / %v", err0, err2)
	}
	if !d2.Snapshot(0).Owner {
		t.Fatal("cross-trunk ownership transfer failed")
	}
	c.checkInvariants(t)

	// Snoopy refresh must also cross the bridge: host 1 (trunk A) holds
	// a resident copy; host 2's purge broadcast reaches it forwarded.
	var v1 uint64
	c.spawn(1, "prime", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		v1, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, 7*time.Second)
	if v1 != 6 {
		t.Fatalf("host1 read = %d, want 6", v1)
	}
	c.spawn(2, "update", func(p *host.Proc) {
		_ = d2.Store(p, RW, addr, 4, 7)
		_ = d2.Purge(p, RW, addr)
	})
	c.run(t, 9*time.Second)
	c.spawn(1, "check", func(p *host.Proc) {
		v1, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, 11*time.Second)
	if v1 != 7 {
		t.Errorf("host1 after cross-bridge purge = %d, want 7 (snoopy refresh must be forwarded)", v1)
	}
	c.checkInvariants(t)
}

// TestCrossTrunkStaleCounted pins the measurable form of the paper's
// purge-ordering hazard: a generation-regressed broadcast from a sender
// on another trunk (a copy the bridge queues delivered after a newer one
// had already landed) increments Metrics.CrossTrunkStale, while the same
// regress from a same-trunk sender counts only as a plain StaleDrop.
func TestCrossTrunkStaleCounted(t *testing.T) {
	c := &testCluster{k: sim.New(7)}
	busA := ethernet.NewBus(c.k, ethernet.DefaultParams())
	busB := ethernet.NewBus(c.k, ethernet.DefaultParams())
	ethernet.NewBridge(c.k, busA, busB, time.Millisecond)
	c.bus = busA
	cfg := fastConfig(4)
	trunkOf := []int{0, 0, 1}
	for i := 0; i < 3; i++ {
		bus := busA
		if trunkOf[i] == 1 {
			bus = busB
		}
		h := host.New(c.k, i, fmt.Sprintf("h%d", i), fastHostParams())
		var d *Driver
		nic := bus.AttachPort(fmt.Sprintf("h%d", i), func() { d.FrameArrived() })
		d = New(h, nic, cfg, 3, hostHops(trunkOf))
		d.StartServer()
		c.hosts = append(c.hosts, h)
		c.drivers = append(c.drivers, d)
	}
	t.Cleanup(func() { c.k.Shutdown() })

	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	// Host 1 primes a replica; host 0 then bumps the page and purges, so
	// host 1's copy sits at a newer generation than zero.
	c.spawn(1, "prime", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		_, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, 2*time.Second)
	c.spawn(0, "bump", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 9)
		_ = d0.Purge(p, RW, addr)
	})
	c.run(t, 4*time.Second)
	if g := d1.Snapshot(0).Gen; g == 0 {
		t.Fatalf("replica did not refresh (gen %d)", g)
	}

	inject := func(from int16, at time.Duration) {
		pkt, err := proto.AppendEncode(nil, proto.Packet{
			Type: proto.TypeData, Page: 0, Short: true, From: from,
			OwnerTo: proto.NoOwner, Gen: 0, Data: make([]byte, vm.ShortSize),
		})
		if err != nil {
			t.Fatal(err)
		}
		spoof := busB.AttachPort(fmt.Sprintf("spoof%d", from), nil)
		c.k.After(at-c.k.Now(), "inject stale", func() { spoof.Send(medium.Broadcast, pkt) })
	}
	// A stale generation-0 copy arrives late, "sent" by trunk-B host 2.
	inject(2, c.k.Now()+time.Millisecond)
	c.run(t, 6*time.Second)
	m1 := d1.Metrics()
	if m1.CrossTrunkStale != 1 {
		t.Errorf("CrossTrunkStale = %d after cross-trunk regress, want 1", m1.CrossTrunkStale)
	}
	staleBefore := m1.StaleDrops

	// The same regress from a same-trunk sender is an ordinary stale
	// drop: the serialized local medium cannot have reordered it.
	inject(0, c.k.Now()+time.Millisecond)
	c.run(t, 8*time.Second)
	if m1.CrossTrunkStale != 1 {
		t.Errorf("CrossTrunkStale = %d after same-trunk regress, want still 1", m1.CrossTrunkStale)
	}
	if m1.StaleDrops != staleBefore+1 {
		t.Errorf("StaleDrops = %d, want %d", m1.StaleDrops, staleBefore+1)
	}
}

func TestBridgedLatencyExceedsLocal(t *testing.T) {
	c := newBridgedCluster(t, 3, 2)
	d0 := c.drivers[0]
	d0.CreatePage(0)
	d0.CreatePage(1)
	addr0 := NewAddr(0, 0).Short()
	addr1 := NewAddr(1, 0).Short()

	// Same-trunk fetch (host1 <- host0) vs cross-trunk (host2 <- host0).
	c.spawn(1, "local", func(p *host.Proc) {
		_ = c.drivers[1].MapIn(p, RO, 0)
		_, _ = c.drivers[1].Load(p, RO, addr0, 4)
	})
	c.run(t, 2*time.Second)
	localLat := c.drivers[1].Metrics().FaultLatency.Mean()

	c.spawn(2, "remote", func(p *host.Proc) {
		_ = c.drivers[2].MapIn(p, RO, 1)
		_, _ = c.drivers[2].Load(p, RO, addr1, 4)
	})
	c.run(t, 4*time.Second)
	crossLat := c.drivers[2].Metrics().FaultLatency.Mean()

	if crossLat <= localLat {
		t.Errorf("cross-trunk latency %v should exceed same-trunk %v (bridge store-and-forward)", crossLat, localLat)
	}
}
