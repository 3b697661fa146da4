package core

import (
	"bytes"
	"errors"
	"testing"
	"time"
	"unsafe"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/vm"
)

func TestDemandReadFetchesShortCopy(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 8).Short()

	var got uint64
	var readErr error
	c.spawn(0, "writer", func(p *host.Proc) {
		if err := d0.MapIn(p, RW, 0); err != nil {
			readErr = err
			return
		}
		if err := d0.Store(p, RW, addr, 4, 12345); err != nil {
			readErr = err
		}
	})
	c.run(t, 100*time.Millisecond)

	c.spawn(1, "reader", func(p *host.Proc) {
		if err := d1.MapIn(p, RO, 0); err != nil {
			readErr = err
			return
		}
		got, readErr = d1.Load(p, RO, addr, 4)
	})
	c.run(t, time.Second)

	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if got != 12345 {
		t.Errorf("remote read = %d, want 12345", got)
	}
	snap := d1.Snapshot(0)
	if !snap.ShortPresent {
		t.Error("short copy not resident after demand read")
	}
	if snap.RestPresent {
		t.Error("short fault paged in the superset remainder")
	}
	if snap.Owner {
		t.Error("read-only fetch must not move the consistent copy")
	}
	c.checkInvariants(t)
}

func TestWriteFaultMovesConsistentCopy(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var err0, err1 error
	c.spawn(0, "a", func(p *host.Proc) {
		if err0 = d0.MapIn(p, RW, 0); err0 != nil {
			return
		}
		err0 = d0.Store(p, RW, addr, 4, 7)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(1, "b", func(p *host.Proc) {
		if err1 = d1.MapIn(p, RW, 0); err1 != nil {
			return
		}
		err1 = d1.Store(p, RW, addr, 4, 8)
	})
	c.run(t, time.Second)

	if err0 != nil || err1 != nil {
		t.Fatalf("errors: %v / %v", err0, err1)
	}
	if !d1.Snapshot(0).Owner {
		t.Error("host1 should own the page after its write")
	}
	if d0.Snapshot(0).Owner {
		t.Error("host0 should have lost ownership")
	}
	if !d0.Snapshot(0).ShortPresent {
		t.Error("host0 should keep an inconsistent resident copy")
	}
	c.checkInvariants(t)

	// The broadcast transfer carried value 7; host0's resident copy was
	// refreshed by the transit and shows the pre-steal value.
	var v uint64
	c.spawn(0, "check", func(p *host.Proc) {
		_ = d0.MapIn(p, RO, 0)
		v, _ = d0.Load(p, RO, addr, 4)
	})
	c.run(t, 2*time.Second)
	if v != 7 {
		t.Errorf("host0 inconsistent copy = %d, want 7 (refreshed at transfer)", v)
	}
}

func TestSnoopyRefreshOfThirdParty(t *testing.T) {
	c := newTestCluster(t, 3, ethernet.DefaultParams(), fastConfig(4))
	d0, d1, d2 := c.drivers[0], c.drivers[1], c.drivers[2]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var v2 uint64
	// Host0 writes 1; host2 reads it (gets a resident inconsistent copy).
	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 1)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(2, "r2", func(p *host.Proc) {
		_ = d2.MapIn(p, RO, 0)
		v2, _ = d2.Load(p, RO, addr, 4)
	})
	c.run(t, time.Second)
	if v2 != 1 {
		t.Fatalf("host2 initial read = %d, want 1", v2)
	}

	// Host0 writes 2, then host1 steals the page; the broadcast transfer
	// must snoopily refresh host2's resident copy to 2.
	c.spawn(0, "w2", func(p *host.Proc) {
		_ = d0.Store(p, RW, addr, 4, 2)
	})
	c.run(t, 1100*time.Millisecond)
	c.spawn(1, "steal", func(p *host.Proc) {
		_ = d1.MapIn(p, RW, 0)
		_, _ = d1.Load(p, RW, addr, 4)
	})
	c.run(t, 2*time.Second)

	c.spawn(2, "r2b", func(p *host.Proc) {
		v2, _ = d2.Load(p, RO, addr, 4)
	})
	c.run(t, 3*time.Second)
	if v2 != 2 {
		t.Errorf("host2 copy after transit = %d, want 2 (snoopy refresh)", v2)
	}
	if got := d2.Metrics().Refreshes; got == 0 {
		t.Error("expected at least one snoopy refresh on host2")
	}
	c.checkInvariants(t)
}

func TestDataDrivenFaultBlocksUntilTransit(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var readAt time.Duration
	var got uint64
	c.spawn(1, "datareader", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		// Purge whatever MapIn fetched, then touch the data-driven view:
		// this must block with no request sent ("Deal Me In" pattern).
		_ = d1.Purge(p, RO, addr)
		got, _ = d1.Load(p, RO, addr.DataDriven(), 4)
		readAt = p.Now()
	})
	// Run long enough that a demand fault would long since have fetched.
	c.run(t, 500*time.Millisecond)
	if readAt != 0 {
		t.Fatalf("data-driven read completed at %v without any transit", readAt)
	}
	reqsBefore := d1.Metrics().RequestsSent

	// Now the owner writes and purges: the broadcast satisfies the fault.
	c.spawn(0, "writer", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 99)
		_ = d0.Purge(p, RW, addr)
	})
	c.run(t, time.Second)

	if readAt == 0 {
		t.Fatal("data-driven fault never satisfied by the purge broadcast")
	}
	if got != 99 {
		t.Errorf("data-driven read = %d, want 99", got)
	}
	if d1.Metrics().RequestsSent != reqsBefore {
		t.Errorf("data-driven fault sent %d extra request(s); must be passive",
			d1.Metrics().RequestsSent-reqsBefore)
	}
	c.checkInvariants(t)
}

func TestPurgeReadOnlyInvalidatesAndRefetches(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var first, second uint64
	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 10)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(1, "r", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		first, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, time.Second)

	// Owner silently updates (no purge): reader's copy is now stale.
	c.spawn(0, "w2", func(p *host.Proc) {
		_ = d0.Store(p, RW, addr, 4, 20)
	})
	c.run(t, 1100*time.Millisecond)

	c.spawn(1, "r2", func(p *host.Proc) {
		// Still stale without purge...
		stale, _ := d1.Load(p, RO, addr, 4)
		if stale != 10 {
			t.Errorf("read before purge = %d, want stale 10", stale)
		}
		// ...but purge + refetch (the active update) gets fresh data.
		_ = d1.Purge(p, RO, addr)
		second, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, 2*time.Second)

	if first != 10 || second != 20 {
		t.Errorf("reads = %d, %d; want 10 then 20", first, second)
	}
	if d1.Metrics().PurgesRO == 0 {
		t.Error("read-only purge not counted")
	}
	c.checkInvariants(t)
}

func TestPurgeWritableBroadcastsAndBlocks(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	// Give host1 a resident copy first.
	c.spawn(1, "prime", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		_, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, 500*time.Millisecond)

	dataSentBefore := d0.Metrics().DataSent
	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 77)
		_ = d0.Purge(p, RW, addr) // blocks until DO-PURGE
		if d0.Snapshot(0).PurgePending {
			t.Error("purge returned while still pending")
		}
	})
	c.run(t, time.Second)

	if d0.Metrics().PurgeSends != 1 {
		t.Errorf("purge sends = %d, want 1", d0.Metrics().PurgeSends)
	}
	if d0.Metrics().DataSent != dataSentBefore+1 {
		t.Errorf("data sent = %d, want exactly one broadcast", d0.Metrics().DataSent-dataSentBefore)
	}
	// Host1's resident copy must have been refreshed passively.
	var v uint64
	c.spawn(1, "check", func(p *host.Proc) {
		v, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, 2*time.Second)
	if v != 77 {
		t.Errorf("host1 copy after purge broadcast = %d, want 77", v)
	}
	if d0.Snapshot(0).Owner != true {
		t.Error("writable purge must not give up ownership")
	}
	c.checkInvariants(t)
}

func TestPurgeReadOnlyViewOfOwnedPageIsNoop(t *testing.T) {
	// The fourth-protocol pathology: purging your own consistent copy
	// through a read-only view does nothing, so you keep sampling your
	// own unchanged value.
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.MapIn(p, RO, 0)
		_ = d0.Store(p, RW, addr, 4, 5)
		_ = d0.Purge(p, RO, addr)
		if !d0.Snapshot(0).ShortPresent {
			t.Error("read-only purge discarded the only consistent copy")
		}
		v, err := d0.Load(p, RO, addr, 4)
		if err != nil || v != 5 {
			t.Errorf("read after no-op purge = %d, %v; want 5", v, err)
		}
	})
	c.run(t, time.Second)
	c.checkInvariants(t)
}

func TestStoreThroughReadOnlyViewFails(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	addr := NewAddr(0, 0)
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RO, 0)
		if err := d0.Store(p, RO, addr, 4, 1); !errors.Is(err, ErrReadOnly) {
			t.Errorf("store via RO err = %v, want ErrReadOnly", err)
		}
	})
	c.run(t, time.Second)
}

func TestConsistentSpaceIsDemandOnly(t *testing.T) {
	// Paper note 2: "the consistent space can only be demand-driven."
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).DataDriven()
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		if _, err := d0.Load(p, RW, addr, 4); !errors.Is(err, ErrInvalidView) {
			t.Errorf("data-driven consistent load err = %v, want ErrInvalidView", err)
		}
		if err := d0.Store(p, RW, addr, 4, 1); !errors.Is(err, ErrInvalidView) {
			t.Errorf("data-driven consistent store err = %v, want ErrInvalidView", err)
		}
	})
	c.run(t, time.Second)
}

func TestUnmappedAccessFails(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	c.spawn(0, "p", func(p *host.Proc) {
		if _, err := d0.Load(p, RO, NewAddr(0, 0), 4); !errors.Is(err, ErrNotMapped) {
			t.Errorf("unmapped load err = %v, want ErrNotMapped", err)
		}
	})
	c.run(t, time.Second)
}

func TestShortViewBoundsChecked(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RO, 0)
		// Offset 30 size 4 crosses the 32-byte short boundary.
		a := NewAddr(0, 30).Short()
		if _, err := d0.Load(p, RO, a, 4); !errors.Is(err, vm.ErrBadAccess) {
			t.Errorf("short overflow err = %v, want ErrBadAccess", err)
		}
	})
	c.run(t, time.Second)
}

func TestRestFetchAfterShortOwnershipTransfer(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	shortA := NewAddr(0, 0).Short()
	deepA := NewAddr(0, 4000) // beyond the short region

	var deepVal uint64
	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, deepA, 4, 31337) // value in the remainder
		_ = d0.Store(p, RW, shortA, 4, 1)
	})
	c.run(t, 100*time.Millisecond)

	// Host1 takes ownership via the short view only.
	c.spawn(1, "steal-short", func(p *host.Proc) {
		_ = d1.MapIn(p, RW, 0)
		_ = d1.Store(p, RW, shortA, 4, 2)
	})
	c.run(t, time.Second)

	s1 := d1.Snapshot(0)
	if !s1.Owner || s1.RestPresent {
		t.Fatalf("after short steal: owner=%v restPresent=%v; want owner without rest", s1.Owner, s1.RestPresent)
	}
	if !d0.Snapshot(0).RestOwner {
		t.Fatal("host0 must remain rest-owner after a short transfer")
	}
	c.checkInvariants(t)

	// Now host1 reads beyond the short region: a rest-fetch must pull the
	// authoritative remainder (including 31337) from host0.
	c.spawn(1, "deep-read", func(p *host.Proc) {
		deepVal, _ = d1.Load(p, RW, deepA, 4)
	})
	c.run(t, 2*time.Second)

	if deepVal != 31337 {
		t.Errorf("deep read = %d, want 31337 via rest-fetch", deepVal)
	}
	s1 = d1.Snapshot(0)
	if !s1.RestOwner || !s1.RestPresent {
		t.Error("rest authority did not transfer with the rest-fetch")
	}
	if d0.Snapshot(0).RestOwner {
		t.Error("host0 still claims rest authority")
	}
	if d1.Metrics().RestSent+d0.Metrics().RestSent == 0 {
		t.Error("no rest data packet was sent")
	}
	c.checkInvariants(t)
}

func TestLockDefersRemoteSteal(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0)

	var stealDone time.Duration
	var unlockAt time.Duration
	c.spawn(0, "locker", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		if err := d0.Lock(p, RW, addr); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		// Hold the lock for a long time while the remote tries to steal.
		p.SleepFor(300 * time.Millisecond)
		_ = d0.Store(p, RW, addr, 4, 42)
		unlockAt = p.Now()
		_ = d0.Unlock(p, addr)
	})
	c.spawn(1, "stealer", func(p *host.Proc) {
		p.SleepFor(50 * time.Millisecond) // let the lock happen first
		_ = d1.MapIn(p, RW, 0)
		v, err := d1.Load(p, RW, addr, 4)
		if err != nil {
			t.Errorf("steal load: %v", err)
		}
		if v != 42 {
			t.Errorf("steal read %d, want 42 (written under lock)", v)
		}
		stealDone = p.Now()
	})
	c.run(t, 5*time.Second)

	if stealDone == 0 {
		t.Fatal("steal never completed")
	}
	if stealDone < unlockAt {
		t.Errorf("steal done %v before unlock %v; lock did not defer", stealDone, unlockAt)
	}
	if d0.Metrics().Deferred == 0 {
		t.Error("no deferred request recorded")
	}
	c.checkInvariants(t)
}

func TestLockFailsWithAbsentPiecesAndMarksWanted(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0)

	var firstErr error
	var retryOK bool
	c.spawn(1, "locker", func(p *host.Proc) {
		_ = d1.MapIn(p, RW, 0) // fetches short only
		firstErr = d1.Lock(p, RW, addr)
		// The failed lock marked the remainder wanted; wait for the
		// background fetch, then retry.
		for i := 0; i < 100; i++ {
			p.SleepFor(20 * time.Millisecond)
			if d1.Snapshot(0).RestPresent {
				break
			}
		}
		if err := d1.Lock(p, RW, addr); err == nil {
			retryOK = true
			_ = d1.Unlock(p, addr)
		}
	})
	c.run(t, 5*time.Second)

	if !errors.Is(firstErr, ErrLockFailed) {
		t.Errorf("first lock err = %v, want ErrLockFailed", firstErr)
	}
	if !retryOK {
		t.Error("retry lock failed even after wanted pieces arrived")
	}
	if d1.Metrics().LockFails == 0 {
		t.Error("lock failure not counted")
	}
	c.checkInvariants(t)
}

func TestRetryRecoversFromLostRequest(t *testing.T) {
	ep := ethernet.DefaultParams()
	ep.LossRate = 0.4 // heavy loss; retries must still converge
	c := newTestCluster(t, 2, ep, fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var got uint64
	var done bool
	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 555)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(1, "r", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		got, _ = d1.Load(p, RO, addr, 4)
		done = true
	})
	c.run(t, 30*time.Second)

	if !done {
		t.Fatal("read never completed despite retries")
	}
	if got != 555 {
		t.Errorf("read = %d, want 555", got)
	}
	c.checkInvariants(t)
}

func TestOwnershipGrantRetransmitOnLoss(t *testing.T) {
	// Force the first grant to be lost, then verify the grantee's retry
	// recovers ownership (the grantedTo path).
	ep := ethernet.DefaultParams()
	ep.LossRate = 0.5
	c := newTestCluster(t, 2, ep, fastConfig(4))
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
	c.run(t, 60*time.Second)
	if !done {
		t.Fatal("write never completed under loss")
	}
	if !d1.Snapshot(0).Owner {
		t.Error("grantee did not end up owner")
	}
	c.checkInvariants(t)
}

func TestFaultLatencyRecorded(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()
	c.spawn(1, "r", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		_, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, time.Second)
	m := d1.Metrics()
	if m.FaultLatency.Count() == 0 {
		t.Fatal("no fault latency samples recorded")
	}
	if m.FaultLatency.Mean() <= 0 {
		t.Error("fault latency mean should be positive")
	}
	if m.DemandFaults == 0 {
		t.Error("demand faults not counted")
	}
}

func TestLocalAccessAfterOwnershipIsFaultFree(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		before := d0.Metrics().DemandFaults
		for i := 0; i < 100; i++ {
			_ = d0.Store(p, RW, addr, 4, uint64(i))
			v, _ := d0.Load(p, RW, addr, 4)
			if v != uint64(i) {
				t.Errorf("local rw read = %d, want %d", v, i)
			}
		}
		if d0.Metrics().DemandFaults != before {
			t.Error("local owned accesses should not fault")
		}
	})
	c.run(t, time.Second)
}

func TestDuplicateGrantDoesNotRegressOwner(t *testing.T) {
	// A retransmitted ownership grant arriving after the new owner has
	// already written must not roll the consistent copy back.
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	// Prime: host1 takes ownership and writes 5.
	c.spawn(1, "w", func(p *host.Proc) {
		_ = d1.MapIn(p, RW, 0)
		_ = d1.Store(p, RW, addr, 4, 5)
	})
	c.run(t, 2*time.Second)
	if !d1.Snapshot(0).Owner {
		t.Fatal("setup: host1 not owner")
	}
	genAfterWrite := d1.Snapshot(0).Gen

	// Replay the original grant (value 0, older generation) as a
	// duplicate broadcast addressed to host1, sent through host0's NIC.
	dup := buildDataPacket(t, 0, true, 1, 0, make([]byte, vm.ShortSize))
	c.k.After(2*time.Millisecond, "send dup", func() {
		d0.nic.Send(-1, dup)
	})
	c.run(t, 4*time.Second)

	s := d1.Snapshot(0)
	if !s.Owner {
		t.Error("duplicate grant cleared ownership")
	}
	if s.Gen < genAfterWrite {
		t.Errorf("frame regressed: gen %d < %d", s.Gen, genAfterWrite)
	}
	var v uint64
	c.spawn(1, "check", func(p *host.Proc) {
		v, _ = d1.Load(p, RW, addr, 4)
	})
	c.run(t, 6*time.Second)
	if v != 5 {
		t.Errorf("owner value = %d, want 5 (duplicate grant must be dropped)", v)
	}
	c.checkInvariants(t)
}

// buildDataPacket encodes a TypeData packet for fault-injection tests.
func buildDataPacket(t *testing.T, page vm.PageID, short bool, ownerTo int16, gen uint32, data []byte) []byte {
	t.Helper()
	b, err := proto.Encode(proto.Packet{
		Type: proto.TypeData, Page: page, Short: short,
		From: 0, OwnerTo: ownerTo, Gen: gen, Data: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutOfRangePageFrameIsDropped: the wire format bounds a page to 2^16
// but a world configures fewer, and a well-formed frame naming a page
// beyond NumPages — past the directory, or inside its last shard — is
// dropped like a corrupt datagram, on the eager and the lazy receive
// path alike: the corrupt datagram's minimal charge, no page
// materialised.
func TestOutOfRangePageFrameIsDropped(t *testing.T) {
	request := func(page vm.PageID) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			b, err := proto.Encode(proto.Packet{Type: proto.TypeRequest, Page: page, From: 0, OwnerTo: proto.NoOwner})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	grant := func(page vm.PageID) func(*testing.T) []byte {
		return func(t *testing.T) []byte { return buildDataPacket(t, page, true, 1, 1, make([]byte, vm.ShortSize)) }
	}
	corrupt := func(*testing.T) []byte { return make([]byte, 16) }
	var minimal time.Duration // the corrupt datagram's charge, row one
	for _, row := range []struct {
		name  string
		lazy  bool
		frame func(*testing.T) []byte
	}{
		{"corrupt datagram", false, corrupt},
		{"eager/request beyond the directory", false, request(4000)},
		{"eager/grant in the last shard", false, grant(10)},
		{"lazy/request beyond the directory", true, request(4000)},
		{"lazy/grant in the last shard", true, grant(10)},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := fastConfig(4)
			cfg.LazyReplicas = row.lazy
			c := newTestCluster(t, 2, ethernet.DefaultParams(), cfg)
			c.bus.AttachPort("tx", nil).Send(medium.Broadcast, row.frame(t))
			c.run(t, time.Second)
			if minimal == 0 {
				minimal = c.drivers[0].Server().Sys()
			}
			for i, d := range c.drivers {
				if sys := d.Server().Sys(); sys != minimal {
					t.Errorf("host %d's server charged %v, want a corrupt datagram's %v", i, sys, minimal)
				}
				for _, sh := range d.shards {
					if sh != nil {
						t.Errorf("host %d materialised a page", i)
					}
				}
			}
		})
	}
}

func TestUnreachableOwnerRecoversViaRetry(t *testing.T) {
	// The paper's reliability scenario: "Hosts may become unreachable
	// for a period of time and yet still have a copy of the page."
	// While the owner is off the wire, demand requests go unanswered;
	// the requester's retransmit timer keeps asking and succeeds once
	// the owner returns.
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 404)
	})
	c.run(t, 50*time.Millisecond)

	// Take host0 off the wire for 400ms.
	d0.nic.SetDown(true)
	recoverAt := c.k.Now() + 400*time.Millisecond
	c.k.After(recoverAt-c.k.Now(), "recover", func() {
		d0.nic.SetDown(false)
	})

	var got uint64
	var gotAt time.Duration
	c.spawn(1, "r", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		got, _ = d1.Load(p, RO, addr, 4)
		gotAt = p.Now()
	})
	c.run(t, 10*time.Second)

	if got != 404 {
		t.Fatalf("read = %d, want 404 after owner recovery", got)
	}
	if gotAt < recoverAt {
		t.Errorf("read completed at %v, before the owner was reachable (%v)", gotAt, recoverAt)
	}
	if d1.Metrics().Retries == 0 {
		t.Error("no retries recorded while the owner was unreachable")
	}
	c.checkInvariants(t)
}

func TestMapOutStopsAccessButKeepsContents(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 9)
		d0.MapOut(RW, 0)
		if err := d0.Store(p, RW, addr, 4, 10); !errors.Is(err, ErrNotMapped) {
			t.Errorf("store after MapOut err = %v, want ErrNotMapped", err)
		}
		// Remap: contents survived.
		_ = d0.MapIn(p, RW, 0)
		v, err := d0.Load(p, RW, addr, 4)
		if err != nil || v != 9 {
			t.Errorf("after remap: %d, %v; want 9", v, err)
		}
	})
	c.run(t, time.Second)
}

func TestServerAccessor(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	if c.drivers[0].Server() == nil {
		t.Fatal("user-level server process missing")
	}
}

func TestSnapshotReflectsDriverState(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	s := d0.Snapshot(0)
	if !s.Owner || !s.RestOwner || !s.ShortPresent || !s.RestPresent {
		t.Errorf("created page snapshot = %+v", s)
	}
	if s.MappedRO || s.MappedRW || s.Locked || s.PurgePending {
		t.Errorf("fresh page has activity flags: %+v", s)
	}
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RO, 0)
		_ = d0.MapIn(p, RW, 0)
	})
	c.run(t, time.Second)
	s = d0.Snapshot(0)
	if !s.MappedRO || !s.MappedRW {
		t.Errorf("mapped flags not reflected: %+v", s)
	}
}

func TestWriteBytesAcrossShortBoundaryNeedsFullView(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(4))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	c.spawn(0, "p", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		data := bytes.Repeat([]byte{7}, 64) // crosses offset 32
		if err := d0.WriteBytes(p, RW, NewAddr(0, 0), data); err != nil {
			t.Errorf("full-view cross-boundary write: %v", err)
		}
		// The same write through the short view must be rejected.
		if err := d0.WriteBytes(p, RW, NewAddr(0, 0).Short(), data); !errors.Is(err, vm.ErrBadAccess) {
			t.Errorf("short-view cross-boundary write err = %v, want ErrBadAccess", err)
		}
		buf := make([]byte, 64)
		if err := d0.ReadBytes(p, RW, NewAddr(0, 0), buf); err != nil {
			t.Errorf("read back: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("cross-boundary bytes corrupted")
		}
	})
	c.run(t, time.Second)
}

// TestDriverSizePinned keeps Driver's fields packed (the wire id and the
// four flags in one word, the server's task and loop state inline), and
// the wait queues of a driver and a page at the two words each that the
// boxed wait keys they replaced took. The structs' sizes are not an
// implementation detail here: they are the terms of MemFootprint, which
// is mem_bytes in every report.
func TestDriverSizePinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("pinned for 64-bit targets")
	}
	const moves = "this moves mem_bytes and bytes_per_host in every report and fails make golden " +
		"(an intended change regenerates the goldens and this number together)"
	if got := unsafe.Sizeof(Driver{}); got != 1312 {
		t.Errorf("unsafe.Sizeof(Driver{}) = %d, want 1312: Driver.MemFootprint starts from it, so %s; "+
			"a new flag joins the four that share a word with id", got, moves)
	}
	if got := unsafe.Sizeof(pageState{}); got != 184 {
		t.Errorf("unsafe.Sizeof(pageState{}) = %d, want 184: MemFootprint counts %d of them per shard, so %s",
			got, shardSize, moves)
	}
	if got := unsafe.Sizeof(host.WaitQ{}); got != 2*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("unsafe.Sizeof(host.WaitQ{}) = %d, want two words: there is one in Driver and two in pageState, so %s", got, moves)
	}
}

// A retry timer is allocated once per driver and reused: arming,
// cancelling, re-arming and firing it allocate nothing once the
// freelist and the kernel's event pool are warm.
func TestRetryTimerCycleAllocatesNothing(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(8))
	d := c.drivers[0]
	st := d.page(3)
	fired := 0
	cycle := func() {
		st.wantShort = true
		d.armRetry(st)
		d.cancelRetry(st)
		d.armRetry(st)
		// Nothing is wanted when the timer fires, so it only retires.
		st.wantShort = false
		st.reqInFlight = true
		c.k.RunUntil(c.k.Now() + d.cfg.RetryTimeout)
		if st.retry == nil && !st.reqInFlight {
			fired++
		}
	}
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Errorf("a retry arm/cancel/re-arm/fire cycle allocates %v objects, want 0", got)
	}
	if fired != 21 {
		t.Errorf("the retry fired in %d of 21 cycles", fired)
	}
	if m := d.Metrics(); m.Retries != 0 {
		t.Errorf("a timer that found nothing wanted counted %d retries", m.Retries)
	}
}

// A snooped short refresh of a resident replica that was never written
// lands in the frame's inline short page: it allocates nothing, and the
// frame holds no page bytes outside itself afterwards.
func TestShortRefreshAllocatesNothing(t *testing.T) {
	const pages = 64
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(pages))
	d := c.drivers[1]
	d.SeedReplicaRange(0, pages)
	for id := vm.PageID(0); id < pages; id++ {
		d.page(id)
	}
	data := make([]byte, vm.ShortSize)
	data[0] = 7
	pkt := proto.Packet{Type: proto.TypeData, Short: true, From: 0, OwnerTo: proto.NoOwner, Gen: 1, Data: data}
	id := vm.PageID(0)
	pkt.Page = id
	d.handleFrame(&pkt)
	const runs = pages - 2 // one more for the warm-up
	if got := testing.AllocsPerRun(runs, func() { id++; pkt.Page = id; d.handleFrame(&pkt) }); got != 0 {
		t.Errorf("a short refresh of a never-written replica allocates %v objects, want 0", got)
	}
	if m := d.Metrics(); m.Refreshes != runs+2 {
		t.Errorf("%d refreshes, want %d", m.Refreshes, runs+2)
	}
	for pg := vm.PageID(0); pg <= id; pg++ {
		f := &d.page(pg).frame
		if v, _ := f.Load(0, 1); v != 7 || f.Gen() != 1 || f.Tier() != 0 {
			t.Fatalf("page %d after the refresh: byte %d, gen %d, tier %d; want 7, 1, 0", pg, v, f.Gen(), f.Tier())
		}
	}
}

// Materialising a page in a shard that exists fills in an entry and
// allocates nothing. It used to box two wait keys per page, which the
// runtime serves from a static table for ids below 256: only worlds with
// more pages than that (windowed-1024) ever paid. The runs walk one
// shard from its first page, starting at the first shard boundary at or
// above 256.
func TestPageMaterialisesWithoutAllocating(t *testing.T) {
	c := newTestCluster(t, 1, ethernet.DefaultParams(), fastConfig(1024))
	d := c.drivers[0]
	first := vm.PageID((256 + shardMask) &^ shardMask)
	id := first
	d.page(id) // creates the shard
	// AllocsPerRun calls the function once more than runs, to warm up.
	if got := testing.AllocsPerRun(shardSize-2, func() { id++; d.page(id) }); got != 0 {
		t.Errorf("materialising a page in an existing shard allocates %v objects, want 0", got)
	}
	if id != first+shardSize-1 || id>>shardBits != first>>shardBits || !d.peek(id).inited {
		t.Fatalf("the runs reached page %d, outside the shard they were to stay in", id)
	}
}
