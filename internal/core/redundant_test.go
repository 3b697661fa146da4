package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
	"mether/internal/vm"
)

// redundantConfig is fastConfig with the redundant-fetch axis enabled.
func redundantConfig(pages, k int) Config {
	cfg := fastConfig(pages)
	cfg.Redundancy = k
	return cfg
}

// TestRedundantTargetsOrder pins the nearest-first order of the extra
// targets: a peer on this host's trunk before one a hop away before one
// two hops away, then the nearer id, then the lower id; at most
// proto.MaxRedundantTargets of them, in a list of that capacity.
func TestRedundantTargetsOrder(t *testing.T) {
	for _, row := range []struct {
		name    string
		hosts   int
		trunkOf []int
		self    int
		want    []int16
	}{
		{"one trunk: nearer id, then lower", 12, nil, 5, []int16{4, 6, 3, 7, 2, 8, 1, 9}},
		{"same trunk, one hop, two hops", 6, []int{2, 0, 1, 0, 2, 1}, 1, []int16{3, 2, 5, 0, 4}},
		{"hops before distance, ties by id", 9, []int{1, 0, 0, 1, 1, 0, 2, 2, 2}, 4, []int16{3, 0, 5, 2, 6, 1, 7, 8}},
	} {
		d := &Driver{hosts: row.hosts, h: host.New(sim.New(1), row.self, "h", fastHostParams())}
		if row.trunkOf != nil {
			d.hops = hostHops(row.trunkOf) // trunks in a line
		}
		if enc := d.redundantTargets(proto.MaxRedundantTargets); len(enc) != 2*len(row.want) {
			t.Errorf("%s: %d target bytes, want %d", row.name, len(enc), 2*len(row.want))
		}
		if !slices.Equal(d.redundant, row.want) || cap(d.redundant) != proto.MaxRedundantTargets {
			t.Errorf("%s: targets %v (cap %d), want %v (cap %d)", row.name, d.redundant, cap(d.redundant), row.want, proto.MaxRedundantTargets)
		}
	}
}

func TestRedundantFetchReplicaAnswersWhenOwnerDown(t *testing.T) {
	// The tentpole scenario: the owner is unreachable, but a replica named
	// as an extra target answers the read fault, so the requester does not
	// have to wait out the owner's recovery (or a retry period).
	c := newTestCluster(t, 3, ethernet.DefaultParams(), redundantConfig(4, 3))
	d0, d1, d2 := c.drivers[0], c.drivers[1], c.drivers[2]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 777)
	})
	c.run(t, 100*time.Millisecond)
	// Host 1 primes a resident replica — the copy the redundant fetch will
	// be answered from.
	c.spawn(1, "prime", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		_, _ = d1.Load(p, RO, addr, 4)
	})
	c.spawn(2, "prime2", func(p *host.Proc) {
		_ = d2.MapIn(p, RO, 0)
		_, _ = d2.Load(p, RO, addr, 4)
	})
	c.run(t, time.Second)

	// Owner off the wire for 2 s (well past the 50 ms retry window).
	d0.nic.SetDown(true)
	recoverAt := c.k.Now() + 2*time.Second
	c.k.After(recoverAt-c.k.Now(), "recover", func() { d0.nic.SetDown(false) })

	var got uint64
	var gotAt time.Duration
	c.spawn(2, "r", func(p *host.Proc) {
		_ = d2.Purge(p, RO, addr)
		got, _ = d2.Load(p, RO, addr, 4)
		gotAt = p.Now()
	})
	c.run(t, 10*time.Second)

	if got != 777 {
		t.Fatalf("redundant read = %d, want 777", got)
	}
	if gotAt == 0 || gotAt >= recoverAt {
		t.Errorf("read completed at %v, not before owner recovery at %v: replica did not answer", gotAt, recoverAt)
	}
	if d2.Metrics().RedundantReqs == 0 {
		t.Error("requester sent no redundant request")
	}
	if d1.Metrics().RedundantServes == 0 {
		t.Error("replica recorded no redundant serve")
	}
	c.checkInvariants(t)
}

func TestRedundantLoserSuppressedAndBuffersReleased(t *testing.T) {
	// First-response-wins, loser side: the owner's reply lands at the
	// targeted replica before its queued answer runs, so the answer is
	// suppressed — no duplicate broadcast, no payload buffer held. The
	// replica's server is kept off the CPU by a compute-bound client long
	// enough that both the request and the winning reply are queued when
	// it finally drains its ring (frames before work, so the transit-count
	// snapshot no longer matches).
	c := &testCluster{k: sim.New(42)}
	c.bus = ethernet.NewBus(c.k, ethernet.DefaultParams())
	cfg := redundantConfig(4, 2)
	for i := 0; i < 3; i++ {
		params := fastHostParams()
		if i == 1 {
			// The replica host's quantum must outlast the request→reply
			// window so the hog holds the CPU across it in one slice.
			params.Quantum = time.Second
		}
		h := host.New(c.k, i, fmt.Sprintf("h%d", i), params)
		var d *Driver
		nic := c.bus.AttachPort(fmt.Sprintf("h%d", i), func() { d.FrameArrived() })
		d = New(h, nic, cfg, 3, nil)
		d.StartServer()
		c.hosts = append(c.hosts, h)
		c.drivers = append(c.drivers, d)
	}
	t.Cleanup(func() { c.k.Shutdown() })

	d0, d1, d2 := c.drivers[0], c.drivers[1], c.drivers[2]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 5)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(1, "prime", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		_, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, time.Second)

	dataBefore := d1.Metrics().DataSent
	// Hog host 1's CPU so its server cannot run while the fetch resolves.
	c.spawn(1, "hog", func(p *host.Proc) {
		p.UseUser(300 * time.Millisecond)
	})
	var got uint64
	c.spawn(2, "r", func(p *host.Proc) {
		p.SleepFor(10 * time.Millisecond) // let the hog take the CPU first
		_ = d2.MapIn(p, RO, 0)
		_ = d2.Purge(p, RO, addr)
		got, _ = d2.Load(p, RO, addr, 4)
	})
	c.run(t, 5*time.Second)

	if got != 5 {
		t.Fatalf("read = %d, want 5 (owner answer)", got)
	}
	m1 := d1.Metrics()
	if m1.RedundantSuppressed == 0 {
		t.Error("replica did not suppress its overtaken answer")
	}
	if m1.RedundantServes != 0 {
		t.Errorf("replica sent %d redundant serve(s); the owner's reply should have won", m1.RedundantServes)
	}
	if m1.DataSent != dataBefore {
		t.Errorf("replica put %d duplicate data broadcast(s) on the wire", m1.DataSent-dataBefore)
	}
	// The leak check: every pooled wire buffer acquired across the run —
	// including the suppressed answer's request frame — must be back in
	// the pool once the cluster is quiescent.
	alloc, free := c.bus.PoolStats()
	if alloc != free {
		t.Errorf("wire-buffer leak: %d allocated, %d free after quiescence", alloc, free)
	}
	c.checkInvariants(t)
}

func TestRedundantFetchPoolBalancedAtK3(t *testing.T) {
	// k=3 exercises the multi-target path (request payload carries two
	// extra targets, several replicas may answer): whatever mix of served,
	// suppressed and stale-dropped replies the run produces, the wire
	// pool must balance at quiescence.
	c := newTestCluster(t, 4, ethernet.DefaultParams(), redundantConfig(4, 3))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 11)
	})
	c.run(t, 100*time.Millisecond)
	for i := 1; i < 4; i++ {
		i := i
		c.spawn(i, "prime", func(p *host.Proc) {
			_ = c.drivers[i].MapIn(p, RO, 0)
			_, _ = c.drivers[i].Load(p, RO, addr, 4)
		})
	}
	c.run(t, time.Second)

	var got uint64
	c.spawn(3, "r", func(p *host.Proc) {
		for n := 0; n < 8; n++ {
			_ = c.drivers[3].Purge(p, RO, addr)
			got, _ = c.drivers[3].Load(p, RO, addr, 4)
		}
	})
	c.run(t, 10*time.Second)

	if got != 11 {
		t.Fatalf("read = %d, want 11", got)
	}
	if c.drivers[3].Metrics().RedundantReqs == 0 {
		t.Error("no redundant requests sent at k=3")
	}
	alloc, free := c.bus.PoolStats()
	if alloc != free {
		t.Errorf("wire-buffer leak: %d allocated, %d free after quiescence", alloc, free)
	}
	c.checkInvariants(t)
}

func TestLateGrantAfterOnwardTransferDropped(t *testing.T) {
	// The late-reply hardening this PR pins down: a duplicate ownership
	// grant that arrives after the grantee has already passed ownership
	// onward must be dropped by generation comparison. Before the fix the
	// drop guard also required st.owner, so exactly this replay would
	// re-install ownership on a host that had granted it away — two
	// consistent copies and regressed bytes.
	c := newTestCluster(t, 3, ethernet.DefaultParams(), fastConfig(4))
	d0, d1, d2 := c.drivers[0], c.drivers[1], c.drivers[2]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	// Ownership walks 0 -> 1 -> 2, with a write at each stop.
	c.spawn(1, "w1", func(p *host.Proc) {
		_ = d1.MapIn(p, RW, 0)
		_ = d1.Store(p, RW, addr, 4, 5)
	})
	c.run(t, 2*time.Second)
	c.spawn(2, "w2", func(p *host.Proc) {
		_ = d2.MapIn(p, RW, 0)
		_ = d2.Store(p, RW, addr, 4, 6)
	})
	c.run(t, 4*time.Second)
	if !d2.Snapshot(0).Owner || d1.Snapshot(0).Owner {
		t.Fatal("setup: ownership did not walk 0 -> 1 -> 2")
	}
	lateBefore := d1.Metrics().LateGrantDrops

	// Replay host 0's original grant to host 1 (generation 0, zero bytes)
	// — the wire can deliver it this late after loss-driven retransmits.
	dup := buildDataPacket(t, 0, true, 1, 0, make([]byte, vm.ShortSize))
	c.k.After(2*time.Millisecond, "late grant", func() {
		d0.nic.Send(medium.Broadcast, dup)
	})
	c.run(t, 6*time.Second)

	if d1.Snapshot(0).Owner {
		t.Error("late grant re-installed ownership on the host that granted it onward")
	}
	if d1.Metrics().LateGrantDrops == lateBefore {
		t.Error("late grant was not counted as dropped")
	}
	var v uint64
	c.spawn(2, "check", func(p *host.Proc) {
		v, _ = d2.Load(p, RW, addr, 4)
	})
	c.run(t, 8*time.Second)
	if v != 6 {
		t.Errorf("owner value = %d, want 6", v)
	}
	c.checkInvariants(t)
}

func TestLateReplyPastRetryWindowAdoptOrDrop(t *testing.T) {
	// The organic version: a bridge whose forwarding delay exceeds the
	// retry timeout makes every reply a late reply. The requester's
	// retries put several grants in flight; it must adopt exactly one
	// (the first), write through it, and drop the stragglers by
	// generation comparison — never double-apply.
	c := &testCluster{k: sim.New(42)}
	busA := ethernet.NewBus(c.k, ethernet.DefaultParams())
	busB := ethernet.NewBus(c.k, ethernet.DefaultParams())
	// 60 ms store-and-forward vs the 50 ms fastConfig retry window.
	ethernet.NewBridge(c.k, busA, busB, 60*time.Millisecond)
	c.bus = busA
	cfg := fastConfig(4)
	for i := 0; i < 2; i++ {
		bus := busA
		if i == 1 {
			bus = busB
		}
		h := host.New(c.k, i, fmt.Sprintf("h%d", i), fastHostParams())
		var d *Driver
		nic := bus.AttachPort(fmt.Sprintf("h%d", i), func() { d.FrameArrived() })
		d = New(h, nic, cfg, 2, hostHops([]int{0, 1}))
		d.StartServer()
		c.hosts = append(c.hosts, h)
		c.drivers = append(c.drivers, d)
	}
	t.Cleanup(func() { c.k.Shutdown() })

	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var done bool
	c.spawn(1, "w", func(p *host.Proc) {
		_ = d1.MapIn(p, RW, 0)
		if err := d1.Store(p, RW, addr, 4, 9); err == nil {
			done = true
		}
	})
	c.run(t, 10*time.Second)

	if !done {
		t.Fatal("cross-bridge write never completed")
	}
	m1 := d1.Metrics()
	if m1.Retries == 0 {
		t.Fatal("no retries: the bridge delay did not outlast the retry window")
	}
	if m1.LateGrantDrops == 0 {
		t.Error("duplicate grants arrived after the adopted one but none was dropped")
	}
	s := d1.Snapshot(0)
	if !s.Owner {
		t.Error("requester did not end up owner")
	}
	var v uint64
	c.spawn(1, "check", func(p *host.Proc) {
		v, _ = d1.Load(p, RW, addr, 4)
	})
	c.run(t, 12*time.Second)
	if v != 9 {
		t.Errorf("value = %d, want 9 (late duplicates must not regress the write)", v)
	}
	c.checkInvariants(t)
}

// runRedundantDifferential runs the same stationary-style op schedule —
// own-page increments plus purge-and-refetch neighbour samples, under
// datagram loss and a mid-run down-NIC window — at fan-out k and returns
// the final per-host own-page values.
func runRedundantDifferential(t *testing.T, k int, schedule [][]bool) ([]uint64, *testCluster) {
	t.Helper()
	hosts, iters := 4, len(schedule[0])
	ep := ethernet.DefaultParams()
	ep.LossRate = 0.1
	c := newTestCluster(t, hosts, ep, redundantConfig(hosts, k))
	for i := 0; i < hosts; i++ {
		c.drivers[i].CreatePage(vm.PageID(i))
	}
	// Host 3 drops off the wire for 500 ms mid-run; retries must carry
	// both its own purges and its neighbour samples across the gap.
	c.k.After(time.Second-c.k.Now(), "down", func() { c.drivers[3].nic.SetDown(true) })
	c.k.After(1500*time.Millisecond-c.k.Now(), "up", func() { c.drivers[3].nic.SetDown(false) })

	done := make([]bool, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		d := c.drivers[i]
		own := NewAddr(vm.PageID(i), 0).Short()
		peer := NewAddr(vm.PageID((i+1)%hosts), 0).Short()
		c.spawn(i, fmt.Sprintf("stat%d", i), func(p *host.Proc) {
			if d.MapIn(p, RW, own.Page()) != nil || d.MapIn(p, RO, peer.Page()) != nil {
				return
			}
			for n := 0; n < iters; n++ {
				v, err := d.Load(p, RW, own, 4)
				if err != nil || d.Store(p, RW, own, 4, v+1) != nil {
					return
				}
				if d.Purge(p, RW, own) != nil {
					return
				}
				if schedule[i][n] {
					if d.Purge(p, RO, peer) != nil {
						return
					}
					if _, err := d.Load(p, RO, peer, 4); err != nil {
						return
					}
				}
			}
			done[i] = true
		})
	}
	c.run(t, 5*time.Minute)
	for i, ok := range done {
		if !ok {
			t.Fatalf("k=%d: host %d did not finish", k, i)
		}
	}
	c.checkInvariants(t)
	// No generation regression: every replica of a page must sit at or
	// below the owner's generation.
	for pg := 0; pg < hosts; pg++ {
		var ownerGen uint64
		for _, d := range c.drivers {
			if s := d.Snapshot(vm.PageID(pg)); s.Owner {
				ownerGen = s.Gen
			}
		}
		for _, d := range c.drivers {
			if s := d.Snapshot(vm.PageID(pg)); !s.Owner && s.Gen > ownerGen {
				t.Errorf("k=%d: host %d holds page %d at gen %d beyond owner gen %d",
					k, d.h.ID(), pg, s.Gen, ownerGen)
			}
		}
	}
	vals := make([]uint64, hosts)
	final := make([]bool, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		d := c.drivers[i]
		own := NewAddr(vm.PageID(i), 0).Short()
		c.spawn(i, "final", func(p *host.Proc) {
			vals[i], _ = d.Load(p, RW, own, 4)
			final[i] = true
		})
	}
	c.run(t, 6*time.Minute)
	for i, ok := range final {
		if !ok {
			t.Fatalf("k=%d: final read on host %d did not finish", k, i)
		}
	}
	return vals, c
}

func TestRedundantDifferentialAgainstClassic(t *testing.T) {
	// The differential harness: the same randomized schedule of writes,
	// purges and neighbour samples runs at k=1 (the classic owner-only
	// reference) and k=3 under adversarial loss and a down-NIC window.
	// Both must converge to identical owner-held contents with no
	// generation regression anywhere — redundancy may change who answers
	// a fault, never what the cluster agrees the page holds.
	rng := rand.New(rand.NewSource(7))
	schedule := make([][]bool, 4)
	for i := range schedule {
		schedule[i] = make([]bool, 12)
		for n := range schedule[i] {
			schedule[i][n] = rng.Intn(2) == 0
		}
	}
	ref, _ := runRedundantDifferential(t, 1, schedule)
	got, c3 := runRedundantDifferential(t, 3, schedule)
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("host %d final value: k=3 %d != k=1 %d", i, got[i], ref[i])
		}
		if ref[i] != uint64(len(schedule[i])) {
			t.Errorf("host %d k=1 value = %d, want %d", i, ref[i], len(schedule[i]))
		}
	}
	var reqs uint64
	for _, d := range c3.drivers {
		reqs += d.Metrics().RedundantReqs
	}
	if reqs == 0 {
		t.Error("k=3 run sent no redundant requests; the axis was inert")
	}
}
