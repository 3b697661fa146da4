package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/vm"
)

// TestFaultOnUntouchedPagePromotesShard pins the two-level directory's
// laziness boundary: a page nobody touched has no shard at all, a
// demand fault materializes exactly the shard it lives in (applying any
// recorded seed ranges on the way), and sibling shards stay nil.
func TestFaultOnUntouchedPagePromotesShard(t *testing.T) {
	pages := 4 * shardSize // four shards
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(pages))
	d0, d1 := c.drivers[0], c.drivers[1]

	// Owner creates one page per shard; d1 has touched nothing.
	var ids []vm.PageID
	for s := 0; s < 4; s++ {
		id := vm.PageID(s*shardSize + 7)
		d0.CreatePage(id)
		ids = append(ids, id)
	}
	for si, sh := range d1.shards {
		if sh != nil {
			t.Fatalf("untouched driver has shard %d materialized", si)
		}
	}

	// Warm-seed d1, then fault on the page in shard 2 only.
	d1.SeedReplicaRange(0, vm.PageID(pages))
	target := ids[2]
	var got uint64
	var loadErr error
	c.spawn(0, "writer", func(p *host.Proc) {
		if err := d0.MapIn(p, RW, target); err != nil {
			loadErr = err
			return
		}
		loadErr = d0.Store(p, RW, NewAddr(target, 0).Short(), 4, 99)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(1, "reader", func(p *host.Proc) {
		if err := d1.MapIn(p, RO, target); err != nil {
			loadErr = err
			return
		}
		got, loadErr = d1.Load(p, RO, NewAddr(target, 0).Short(), 4)
	})
	c.run(t, time.Second)
	if loadErr != nil {
		t.Fatalf("load: %v", loadErr)
	}
	// The seeded replica predates the owner's store; whether the store's
	// refresh broadcast beat the read is a protocol matter — what the
	// directory must guarantee is that exactly one shard materialized.
	_ = got
	for si, sh := range d1.shards {
		if si == 2 && sh == nil {
			t.Error("faulted shard not materialized")
		}
		if si != 2 && sh != nil {
			t.Errorf("shard %d materialized without any access", si)
		}
	}
	// peek must see what page() built, and nothing else.
	if d1.peek(target) == nil {
		t.Error("peek misses the materialized page")
	}
	if d1.peek(ids[3]) != nil {
		t.Error("peek materialized an untouched page")
	}
	c.checkInvariants(t)
}

// TestSeededReplicaStaysFlyweightUntilWritten pins the zero-page
// copy-on-write contract end to end: warm-seeding a replica costs no
// frame bytes (the range is just recorded), a read of the untouched
// page serves zeros from the shared zero page at tier 0, a short store
// and its refresh land in the frames' inline short pages at tier 0 on
// both hosts, and only a store past the short page materializes the
// full page — on the owner.
func TestSeededReplicaStaysFlyweightUntilWritten(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(8))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(3)
	d1.SeedReplicaRange(0, 8)

	// Owner side: CreatePage marks presence but writes nothing — the
	// frame must still be the zero flyweight.
	if tier := d0.page(3).frame.Tier(); tier != 0 {
		t.Fatalf("owner frame tier = %d before any store, want 0", tier)
	}

	// Replica side: materialize via seed, read zeros, stay tier 0.
	var got uint64
	var err error
	c.spawn(1, "reader", func(p *host.Proc) {
		if e := d1.MapIn(p, RO, 3); e != nil {
			err = e
			return
		}
		got, err = d1.Load(p, RO, NewAddr(3, 0).Short(), 4)
	})
	c.run(t, time.Second)
	if err != nil {
		t.Fatalf("seeded read: %v", err)
	}
	if got != 0 {
		t.Errorf("seeded replica read = %d, want 0", got)
	}
	if tier := d1.page(3).frame.Tier(); tier != 0 {
		t.Errorf("replica tier = %d after zero read, want 0 (flyweight)", tier)
	}

	// First write forks the owner's frame off the zero page; the purge
	// broadcast (passive update) then refreshes the seeded replica,
	// which must materialize real bytes only now.
	c.spawn(0, "writer", func(p *host.Proc) {
		if e := d0.MapIn(p, RW, 3); e != nil {
			err = e
			return
		}
		if e := d0.Store(p, RW, NewAddr(3, 4).Short(), 4, 0xCAFE); e != nil {
			err = e
			return
		}
		err = d0.Purge(p, RW, NewAddr(3, 4).Short())
	})
	c.run(t, 2*time.Second)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if tier := d0.page(3).frame.Tier(); tier != 0 {
		t.Errorf("owner frame tier = %d after a short store, want 0 (the short page is inline)", tier)
	}
	var v uint64
	c.spawn(1, "reread", func(p *host.Proc) {
		v, err = d1.Load(p, RO, NewAddr(3, 4).Short(), 4)
	})
	c.run(t, 3*time.Second)
	if err != nil {
		t.Fatalf("reread: %v", err)
	}
	if v != 0xCAFE {
		t.Errorf("replica reread = %#x, want 0xCAFE", v)
	}
	if tier := d1.page(3).frame.Tier(); tier != 0 {
		t.Errorf("replica tier = %d after a short refresh, want 0", tier)
	}

	// A store past the short page is what forks the owner's frame off
	// the zero page.
	c.spawn(0, "full-writer", func(p *host.Proc) {
		err = d0.Store(p, RW, NewAddr(3, vm.ShortSize+8), 4, 0xBEEF)
	})
	c.run(t, 4*time.Second)
	if err != nil {
		t.Fatalf("full store: %v", err)
	}
	if tier := d0.page(3).frame.Tier(); tier != vm.PageSize {
		t.Errorf("owner frame tier = %d after a full store, want %d (write did not fork)", tier, vm.PageSize)
	}
	c.checkInvariants(t)
}

// lazyDiffState is the per-driver observable state the differential
// test compares: every counter that feeds the gated report metrics,
// the fault-latency distribution, and the pages' final contents.
// Refreshes/Installs/StaleDrops are deliberately absent — they count
// per-replica materialization work, which is exactly what LazyReplicas
// elides for pages nobody mapped; everything a workload can observe
// through virtual time or page contents must still match.
func lazyDiffState(t *testing.T, c *testCluster, pages int) string {
	t.Helper()
	out := ""
	for i, d := range c.drivers {
		m := d.Metrics()
		out += fmt.Sprintf("d%d: faults=%d/%d req=%d retries=%d data=%d rest=%d lat=%d/%d\n",
			i, m.DemandFaults, m.DataFaults, m.RequestsSent, m.Retries, m.DataSent,
			m.RestSent, m.FaultLatency.Count(), m.FaultLatency.Mean())
	}
	// Final contents, read through the owner of each page (the
	// authoritative copy); owners are host id%len below.
	for pg := 0; pg < pages; pg++ {
		d := c.drivers[pg%len(c.drivers)]
		st := d.page(vm.PageID(pg))
		out += fmt.Sprintf("page%d gen=%d data=%x\n", pg, st.frame.Gen(), st.frame.Region(true))
	}
	return out
}

// TestLazyReplicasUntouchedSeedSeesZeros writes down the one observable
// on which the lazy receive path differs from the eager one — the reason
// LazyReplicas is a trade, not a twin that could replace it (and why the
// differential test below leaves Refreshes/Installs/StaleDrops out). The
// owner stores and purges; a seeded host that has never mapped the page
// then maps it read-only and loads. Eager: the purge broadcast refreshed
// the materialized seed replica, so the load reads the new value without
// a fault. Lazy: the broadcast was only noted as a transit, the first
// touch materializes the seed-time zeros, and the host reads 0 until it
// purges its stale copy and demand-fetches.
func TestLazyReplicasUntouchedSeedSeesZeros(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		cfg := fastConfig(4)
		cfg.LazyReplicas = lazy
		c := newTestCluster(t, 2, ethernet.DefaultParams(), cfg)
		c.drivers[0].CreatePage(0)
		for _, d := range c.drivers {
			d.SeedReplicaRange(0, 4)
		}
		addr := NewAddr(0, 0).Short()
		var first, afterPurge uint64
		var err error
		c.spawn(0, "owner", func(p *host.Proc) {
			d := c.drivers[0]
			if err = d.MapIn(p, RW, 0); err == nil {
				if err = d.Store(p, RW, addr, 4, 42); err == nil {
					err = d.Purge(p, RW, addr)
				}
			}
		})
		var faultsAtFirst uint64
		c.spawn(1, "late-reader", func(p *host.Proc) {
			d := c.drivers[1]
			p.SleepFor(100 * time.Millisecond) // the purge broadcast has long landed
			if e := d.MapIn(p, RO, 0); e != nil {
				err = e
				return
			}
			first, _ = d.Load(p, RO, addr, 4)
			faultsAtFirst = d.Metrics().DemandFaults
			if e := d.Purge(p, RO, addr); e != nil {
				err = e
				return
			}
			afterPurge, _ = d.Load(p, RO, addr, 4)
		})
		c.run(t, time.Minute)
		if err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		m := c.drivers[1].Metrics()
		wantFirst, wantRefreshes := uint64(42), uint64(1)
		if lazy {
			wantFirst, wantRefreshes = 0, 0
		}
		if first != wantFirst || faultsAtFirst != 0 || m.Refreshes != wantRefreshes {
			t.Errorf("lazy=%v: first load %d after %d demand faults, %d refreshes; want %d, 0, %d",
				lazy, first, faultsAtFirst, m.Refreshes, wantFirst, wantRefreshes)
		}
		if afterPurge != 42 || m.DemandFaults != 1 {
			t.Errorf("lazy=%v: load after own purge %d with %d demand faults; want 42 and 1", lazy, afterPurge, m.DemandFaults)
		}
		c.checkInvariants(t)
	}
}

// TestLazyReplicasDifferential is the gated receive path's proof
// obligation, in the style of ethernet/differential_test.go: on a
// windowed workload — every host maps only the pages it touches, which
// is the only configuration the grids enable LazyReplicas for — the
// lazy path must be observation-identical to the eager one. Same
// virtual clock, same per-driver metrics, same final page contents and
// generations, under randomized store/purge/sample interleavings. The
// only permitted difference is memory: the lazy world must not have
// materialized the pages nobody mapped.
func TestLazyReplicasDifferential(t *testing.T) {
	const hosts, rounds = 5, 40
	pages := hosts * 3 // one owned page per host + spare pages nobody maps
	rng := rand.New(rand.NewSource(7))
	// One shared op schedule, replayed identically on both worlds.
	type op struct {
		host int
		kind int // 0 = store+purge own, 1 = sample neighbour, 2 = plain load own
		val  uint32
	}
	var script []op
	for r := 0; r < rounds; r++ {
		script = append(script, op{
			host: rng.Intn(hosts), kind: rng.Intn(3), val: rng.Uint32(),
		})
	}

	runWorld := func(lazy bool) (*testCluster, time.Duration) {
		cfg := fastConfig(pages)
		cfg.LazyReplicas = lazy
		c := newTestCluster(t, hosts, ethernet.DefaultParams(), cfg)
		for i := 0; i < hosts; i++ {
			c.drivers[i].CreatePage(vm.PageID(i))
			c.drivers[i].SeedReplicaRange(0, vm.PageID(pages))
		}
		var err error
		for i := 0; i < hosts; i++ {
			i := i
			d := c.drivers[i]
			c.spawn(i, fmt.Sprintf("w%d", i), func(p *host.Proc) {
				own := NewAddr(vm.PageID(i), 0).Short()
				peer := NewAddr(vm.PageID((i+1)%hosts), 0).Short()
				if e := d.MapIn(p, RW, vm.PageID(i)); e != nil {
					err = e
					return
				}
				if e := d.MapIn(p, RO, vm.PageID((i+1)%hosts)); e != nil {
					err = e
					return
				}
				for _, o := range script {
					if o.host != i {
						continue
					}
					p.UseUser(50 * time.Microsecond)
					switch o.kind {
					case 0:
						if e := d.Store(p, RW, own, 4, uint64(o.val)); e != nil {
							err = e
							return
						}
						if e := d.Purge(p, RW, own); e != nil {
							err = e
							return
						}
					case 1:
						if e := d.Purge(p, RO, peer); e != nil {
							err = e
							return
						}
						if _, e := d.Load(p, RO, peer, 4); e != nil {
							err = e
							return
						}
					case 2:
						if _, e := d.Load(p, RW, own, 4); e != nil {
							err = e
							return
						}
					}
				}
			})
		}
		end := c.k.RunUntil(5 * time.Minute)
		if err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		c.checkInvariants(t)
		return c, end
	}

	eager, eagerEnd := runWorld(false)
	lazyC, lazyEnd := runWorld(true)

	if eagerEnd != lazyEnd {
		t.Errorf("virtual end time diverged: eager %v, lazy %v", eagerEnd, lazyEnd)
	}
	eagerState := lazyDiffState(t, eager, pages)
	lazyState := lazyDiffState(t, lazyC, pages)
	if eagerState != lazyState {
		t.Errorf("observable state diverged:\n--- eager ---\n%s--- lazy ---\n%s", eagerState, lazyState)
	}

	// The payoff side: the spare pages (id >= hosts) are seeded but never
	// mapped by anyone, so the lazy world must not have built them on
	// non-owner hosts, while the eager world ingested their... nothing —
	// nobody writes them, so neither world should have them; the real
	// laziness shows on the owned pages' replicas at non-mapping hosts.
	// Host j maps pages j and j+1 only: page i must be unmaterialized on
	// every lazy host other than i-1, i, and the owner.
	for pg := 0; pg < hosts; pg++ {
		for j := 0; j < hosts; j++ {
			maps := j == pg || (j+1)%hosts == pg
			if maps || pg%hosts == j {
				continue
			}
			if lazyC.drivers[j].peek(vm.PageID(pg)) != nil {
				t.Errorf("lazy host %d materialized unmapped page %d", j, pg)
			}
		}
	}
}
