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

// TestRandomOpSoup drives three hosts with random interleaved Mether
// operations — loads, stores, purges, locks, page-outs — on lossless
// ground where the protocol is live: each page is written by at most two
// hosts, through one view extent, and MinResidency is 10 ms (with none,
// two writers ping-pong a page for ever; see Config.MinResidency). Every
// client must finish, the cluster-wide ownership invariants must hold at
// each quiescent point, and afterwards a read of each page through a
// freshly fetched consistent view must observe a value the op log wrote.
func TestRandomOpSoup(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOpSoup(t, seed, 0)
		})
	}
}

// TestRandomOpSoupUnderLoss repeats the soup on a lossy wire, every host
// writing every page through either view: liveness is retry-driven, and
// the invariants must still hold. It cannot ask that every client finish:
// a grant lost on the wire can strand a page with no owner
// (TestStrandedGrantLosesOwnership).
func TestRandomOpSoupUnderLoss(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOpSoup(t, seed, 0.05)
		})
	}
}

func runOpSoup(t *testing.T, seed int64, lossRate float64) {
	t.Helper()
	const (
		hosts = 3
		pages = 3
		ops   = 60
	)
	ep := ethernet.DefaultParams()
	ep.LossRate = lossRate
	cfg := fastConfig(pages)
	live := lossRate == 0
	if live {
		cfg.MinResidency = 10 * time.Millisecond
	}
	c := newTestCluster(t, hosts, ep, cfg)
	rng := rand.New(rand.NewSource(seed))
	// On live ground page pg is written by hosts pg and pg+1 only, through
	// one view extent drawn per page.
	short := make([]bool, pages)
	for pg := range short {
		short[pg] = live && rng.Intn(2) == 0
	}

	for pg := 0; pg < pages; pg++ {
		c.drivers[pg%hosts].CreatePage(vm.PageID(pg))
	}

	// lastWritten[page] tracks the final value each page's word 0 holds,
	// maintained in program order per page (stores are serialized by
	// ownership, and each client writes a unique value).
	lastWritten := make([]uint64, pages)
	nextVal := uint64(100)

	type clientPlan struct {
		host int
		ops  []func(p *host.Proc, d *Driver) error
	}
	var plans []clientPlan
	for h := 0; h < hosts; h++ {
		plan := clientPlan{host: h}
		for i := 0; i < ops; i++ {
			pg := vm.PageID(rng.Intn(pages))
			addr := NewAddr(pg, 0)
			if view := rng.Intn(2) == 0; live && short[pg] || !live && view {
				addr = addr.Short()
			}
			op := rng.Intn(10)
			if writes := op >= 3 && op <= 5 || op == 7; live && writes && (h-int(pg)+hosts)%hosts > 1 {
				op = 0 // not one of the page's writers: a load instead
			}
			switch op {
			case 0, 1, 2: // read-only load (any staleness fine)
				plan.ops = append(plan.ops, func(p *host.Proc, d *Driver) error {
					_, err := d.Load(p, RO, addr.Demand(), 4)
					return err
				})
			case 3, 4, 5: // consistent store of a fresh unique value
				v := nextVal
				nextVal++
				pgCopy := pg
				plan.ops = append(plan.ops, func(p *host.Proc, d *Driver) error {
					if err := d.Store(p, RW, addr, 4, v); err != nil {
						return err
					}
					lastWritten[pgCopy] = v
					return nil
				})
			case 6: // read-only purge
				plan.ops = append(plan.ops, func(p *host.Proc, d *Driver) error {
					return d.Purge(p, RO, addr)
				})
			case 7: // writable purge (only meaningful when owner; fetch first)
				plan.ops = append(plan.ops, func(p *host.Proc, d *Driver) error {
					if _, err := d.Load(p, RW, addr.Demand(), 4); err != nil {
						return err
					}
					return d.Purge(p, RW, addr.Short())
				})
			case 8: // lock/unlock cycle
				plan.ops = append(plan.ops, func(p *host.Proc, d *Driver) error {
					if err := d.Lock(p, RW, addr); err != nil {
						return nil // lock failures are legal (pieces wanted)
					}
					p.SleepFor(time.Duration(1+rng.Intn(3)) * time.Millisecond)
					return d.Unlock(p, addr)
				})
			case 9: // pageout
				plan.ops = append(plan.ops, func(p *host.Proc, d *Driver) error {
					snap := d.Snapshot(pg)
					if snap.Owner || snap.RestOwner {
						// The driver refuses to evict authoritative
						// regions; exercise that path too.
						_ = d.PageOut(addr)
						return nil
					}
					return d.PageOut(addr)
				})
			}
		}
		plans = append(plans, plan)
	}

	finished := 0
	for _, plan := range plans {
		plan := plan
		d := c.drivers[plan.host]
		c.spawn(plan.host, "soup", func(p *host.Proc) {
			defer func() { finished++ }()
			if err := d.MapIn(p, RO, 0); err != nil {
				t.Errorf("mapin: %v", err)
				return
			}
			for pg := 0; pg < pages; pg++ {
				if err := d.MapIn(p, RO, vm.PageID(pg)); err != nil {
					t.Errorf("mapin ro %d: %v", pg, err)
				}
				if err := d.MapIn(p, RW, vm.PageID(pg)); err != nil {
					t.Errorf("mapin rw %d: %v", pg, err)
				}
			}
			for i, op := range plan.ops {
				if err := op(p, d); err != nil {
					t.Errorf("host %d op %d: %v", plan.host, i, err)
					return
				}
				p.SleepFor(time.Duration(rng.Intn(5)) * time.Millisecond)
			}
		})
	}
	c.run(t, 10*time.Minute)
	if live && finished < hosts {
		t.Errorf("%d of %d clients finished", finished, hosts)
	}
	c.checkInvariants(t)

	// Data integrity: a consistent read on host 0 must see each page's
	// last written value (ownership serializes the writes; the op-log
	// order of lastWritten matches completion order because each value
	// is unique and monotonically assigned per plan execution order...
	// concurrent writers to one page may interleave, so accept any of
	// the values written by the final writers: we simply require the
	// consistent copy to hold *some* value that was actually written.
	written := map[uint64]bool{0: true}
	for v := uint64(100); v < nextVal; v++ {
		written[v] = true
	}
	var got [pages]uint64
	var readErr error
	c.spawn(0, "verify", func(p *host.Proc) {
		d := c.drivers[0]
		for pg := 0; pg < pages; pg++ {
			if err := d.MapIn(p, RW, vm.PageID(pg)); err != nil {
				readErr = err
				return
			}
			v, err := d.Load(p, RW, NewAddr(vm.PageID(pg), 0), 4)
			if err != nil {
				readErr = err
				return
			}
			got[pg] = v
		}
	})
	c.run(t, 20*time.Minute)
	if readErr != nil {
		t.Fatalf("verify read: %v", readErr)
	}
	for pg := 0; pg < pages; pg++ {
		if !written[got[pg]] {
			t.Errorf("page %d holds %d, which was never written", pg, got[pg])
		}
	}
	c.checkInvariants(t)
}

// TestConcurrentWritersSerialize checks that two hosts hammering the
// same word through the consistent view never lose an increment: the
// single-consistent-copy discipline makes read-modify-write atomic as
// long as the holder does both under one ownership tenure (reads and
// writes here are back-to-back, and the residency holdoff guarantees
// the tenure).
func TestConcurrentWritersSerialize(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(2))
	d0 := c.drivers[0]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()
	const perHost = 30

	for h := 0; h < 2; h++ {
		h := h
		d := c.drivers[h]
		c.spawn(h, "incr", func(p *host.Proc) {
			if err := d.MapIn(p, RW, 0); err != nil {
				t.Errorf("mapin: %v", err)
				return
			}
			for i := 0; i < perHost; i++ {
				v, err := d.Load(p, RW, addr, 4)
				if err != nil {
					t.Errorf("load: %v", err)
					return
				}
				if err := d.Store(p, RW, addr, 4, v+1); err != nil {
					t.Errorf("store: %v", err)
					return
				}
			}
		})
	}
	c.run(t, 10*time.Minute)

	var final uint64
	c.spawn(0, "check", func(p *host.Proc) {
		final, _ = d0.Load(p, RW, addr, 4)
	})
	c.run(t, 11*time.Minute)
	if final != 2*perHost {
		t.Errorf("final counter = %d, want %d (lost updates)", final, 2*perHost)
	}
	c.checkInvariants(t)
}
