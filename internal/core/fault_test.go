package core

import (
	"slices"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
)

// claimConfig is fastConfig with orphan re-claiming armed.
func claimConfig(pages, retries int) Config {
	cfg := fastConfig(pages)
	cfg.ClaimRetries = retries
	return cfg
}

// Crash wipes the driver's protocol state in place and takes it off the
// wire; Recover re-joins cold, re-fetching on demand through the same
// (still materialized) directory entries, and the unavailability and
// rejoin windows land in the metrics.
func TestCrashRecoverRefetchesOnDemand(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var werr, rerr error
	c.spawn(0, "writer", func(p *host.Proc) {
		if werr = d0.MapIn(p, RW, 0); werr == nil {
			werr = d0.Store(p, RW, addr, 4, 7)
		}
	})
	c.run(t, 100*time.Millisecond)
	var got uint64
	c.spawn(1, "reader", func(p *host.Proc) {
		if rerr = d1.MapIn(p, RO, 0); rerr == nil {
			got, rerr = d1.Load(p, RO, addr, 4)
		}
	})
	c.run(t, time.Second)
	if werr != nil || rerr != nil {
		t.Fatalf("setup: werr=%v rerr=%v", werr, rerr)
	}
	if got != 7 || !d1.Snapshot(0).ShortPresent {
		t.Fatalf("replica not resident before crash (got %d)", got)
	}

	d1.Crash()
	if !d1.down {
		t.Fatal("down false after Crash")
	}
	snap := d1.Snapshot(0)
	if snap.ShortPresent || snap.RestPresent || snap.Owner || snap.RestOwner {
		t.Errorf("crash left state resident: %+v", snap)
	}
	// Recover on a kernel timer so virtual time actually spans the down
	// window (the kernel stops at quiescence, not at the deadline).
	c.k.After(500*time.Millisecond, "recover", func() { d1.Recover() })
	c.run(t, 1200*time.Millisecond)

	var got2 uint64
	c.spawn(1, "rereader", func(p *host.Proc) {
		got2, rerr = d1.Load(p, RO, addr, 4)
	})
	c.run(t, 3*time.Second)
	if rerr != nil {
		t.Fatalf("post-recovery read: %v", rerr)
	}
	if got2 != 7 {
		t.Errorf("post-recovery read = %d, want 7 (demand re-fetch)", got2)
	}
	m := d1.Metrics()
	if m.UnavailNS < 400*time.Millisecond {
		t.Errorf("UnavailNS = %v, want ~the 500 ms down window", m.UnavailNS)
	}
	if m.RejoinNS <= 0 {
		t.Errorf("RejoinNS = %v, want > 0 (cold re-join measured)", m.RejoinNS)
	}
	c.checkInvariants(t)
}

// A crashed owner's page is orphaned; a requester whose demand retries
// go unanswered ClaimRetries times re-claims it (generation-bumped), and
// the recovered ghost re-fetches from the new owner instead of
// re-minting its lost authority.
func TestOrphanedOwnershipIsClaimed(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), claimConfig(4, 3))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var err0, err1 error
	c.spawn(0, "writer", func(p *host.Proc) {
		if err0 = d0.MapIn(p, RW, 0); err0 == nil {
			err0 = d0.Store(p, RW, addr, 4, 7)
		}
	})
	c.run(t, 100*time.Millisecond)

	d0.Crash()
	c.spawn(1, "claimer", func(p *host.Proc) {
		if err1 = d1.MapIn(p, RW, 0); err1 == nil {
			err1 = d1.Store(p, RW, addr, 4, 9)
		}
	})
	// 3 unanswered retries at 50 ms each, then the claim broadcast.
	c.run(t, 2*time.Second)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
	if !d1.Snapshot(0).Owner {
		t.Fatal("claimer did not take ownership of the orphaned page")
	}
	if d1.Metrics().OrphanRecoveries != 1 {
		t.Errorf("OrphanRecoveries = %d, want 1", d1.Metrics().OrphanRecoveries)
	}

	d0.Recover()
	var got uint64
	c.spawn(0, "ghost", func(p *host.Proc) {
		if err0 = d0.MapIn(p, RO, 0); err0 == nil {
			got, err0 = d0.Load(p, RO, addr, 4)
		}
	})
	c.run(t, 4*time.Second)
	if err0 != nil {
		t.Fatalf("ghost read: %v", err0)
	}
	if got != 9 {
		t.Errorf("ghost read = %d, want 9 (the claimer's copy)", got)
	}
	if d0.Snapshot(0).Owner {
		t.Error("recovered ghost re-minted ownership it lost in the crash")
	}
	c.checkInvariants(t)
}

// The ghost fence: after a crash and recovery, a grant the host no
// longer wants (minted for its pre-crash self) is refused instead of
// installing stale authority.
func TestGhostFenceRefusesUnwantedGrant(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var err0, err1 error
	c.spawn(0, "writer", func(p *host.Proc) {
		if err0 = d0.MapIn(p, RW, 0); err0 == nil {
			err0 = d0.Store(p, RW, addr, 4, 7)
		}
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(1, "toucher", func(p *host.Proc) {
		if err1 = d1.MapIn(p, RO, 0); err1 == nil {
			_, err1 = d1.Load(p, RO, addr, 4)
		}
	})
	c.run(t, time.Second)
	if err0 != nil || err1 != nil {
		t.Fatalf("setup: err0=%v err1=%v", err0, err1)
	}

	d1.Crash()
	c.run(t, 1100*time.Millisecond)
	d1.Recover()
	c.run(t, 1200*time.Millisecond)

	// A pre-crash ownership grant arrives for the recovered host, which
	// wants nothing: the fence must drop it without installing.
	raw := c.bus.AttachPort("ghost-granter", nil)
	payload := make([]byte, 32)
	payload[0] = 99
	b, err := proto.Encode(proto.Packet{
		Type: proto.TypeData, Page: 0, Short: true, Consistent: true,
		From: 0, OwnerTo: 1, Gen: 5, Data: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw.Send(medium.Broadcast, b)
	c.run(t, 2*time.Second)

	if d1.Snapshot(0).Owner {
		t.Error("ghost grant installed ownership on the recovered host")
	}
	if d1.Metrics().GhostDrops == 0 {
		t.Error("GhostDrops = 0, want the fence to count the refused grant")
	}
}

// Crash wipes every materialised page and then wakes the page's two wait
// queues, which live inside the state being wiped: a client asleep in a
// demand fault and one asleep in a writable PURGE must both run again —
// the purge returns, the fault is re-sent after Recover and completes —
// instead of being stranded on a queue the wipe forgot.
func TestCrashWakesFaultAndPurgeSleepers(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	d1.CreatePage(1)

	var ferr, perr error
	faulted, purged := false, false
	c.spawn(1, "faulter", func(p *host.Proc) {
		if ferr = d1.MapIn(p, RO, 0); ferr == nil {
			_, ferr = d1.Load(p, RO, NewAddr(0, 0).Short(), 4)
		}
		faulted = true
	})
	c.spawn(1, "purger", func(p *host.Proc) {
		addr := NewAddr(1, 0).Short()
		if perr = d1.MapIn(p, RW, 1); perr == nil {
			if perr = d1.Store(p, RW, addr, 4, 7); perr == nil {
				perr = d1.Purge(p, RW, addr)
			}
		}
		purged = true
	})
	// Crash at the first instant both are asleep: the request for page 0
	// and the purge broadcast of page 1 wait for the server's turn.
	crashed := false
	var watch func()
	watch = func() {
		if d1.page(0).waitQ != (host.WaitQ{}) && d1.page(1).purgeQ != (host.WaitQ{}) {
			crashed = true
			d1.Crash()
			c.k.After(100*time.Millisecond, "recover", d1.Recover)
			return
		}
		if c.k.Now() < 50*time.Millisecond {
			c.k.After(10*time.Microsecond, "watch", watch)
		}
	}
	c.k.After(0, "watch", watch)
	c.run(t, 5*time.Second)

	if !crashed {
		t.Fatal("the two clients were never asleep together")
	}
	if !faulted || !purged || ferr != nil || perr != nil {
		t.Errorf("faulter returned %v (err %v), purger returned %v (err %v); want both back without error", faulted, ferr, purged, perr)
	}
	if idle := c.k.Idle(); slices.Contains(idle, "h1/faulter") || slices.Contains(idle, "h1/purger") {
		t.Errorf("Idle() = %v: a crash left a client asleep", idle)
	}
	c.checkInvariants(t)
}
