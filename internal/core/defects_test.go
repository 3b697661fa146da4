package core

import (
	"fmt"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/vm"
)

// Defect rows: protocol defects found while sizing a reference spec for
// this package, each pinned as a fixed script of client operations on
// three hosts over a lossless Ethernet, host 0 creating page 0. A row's
// check asserts what the protocol does today, and its comment says what
// it should do. Fixing one moves report bytes, so the fix lands as a model
// correction with its row turned round. A row is played by the test named
// in it.
type defect struct {
	test  string
	cfg   Config
	steps []step
	until time.Duration
	check func(t *testing.T, c *testCluster, done []bool)
}

// step is one client operation, made by a process started on host at at,
// that sets done[i] when it returns; or, for nicDown and nicUp, the host's
// NIC going down or up at at.
type step struct {
	at   time.Duration
	host int
	op   stepOp
	addr Addr
}

type stepOp uint8

const (
	opStore stepOp = iota // Store through RW
	opLoad                // Load through RO
	opPurge               // Purge through RO
	nicDown
	nicUp
)

func residency(d time.Duration) Config {
	cfg := fastConfig(1)
	cfg.MinResidency = d
	return cfg
}

var defects = []defect{{
	// Phantom grant. Host 1 writes page 0, host 2 steals it at 100 ms and
	// host 1 asks again at 110 ms, while host 2's residency holds it. Host
	// 0, owner no longer, still names host 1 in grantedTo and so takes the
	// request for a lost grant: it re-sends its old one, and host 1, which
	// wants the consistent copy, installs it. Hosts 1 and 2 are then both
	// owners. It should re-send a grant only to the want it answered, and
	// host 1 should wait for host 2's.
	test:  "TestPhantomGrantMintsSecondOwner",
	cfg:   residency(50 * time.Millisecond),
	steps: []step{{0, 1, opStore, NewAddr(0, 0).Short()}, {100 * time.Millisecond, 2, opStore, NewAddr(0, 0).Short()}, {110 * time.Millisecond, 1, opStore, NewAddr(0, 0).Short()}},
	until: 120 * time.Millisecond,
	check: func(t *testing.T, c *testCluster, done []bool) {
		if err := CheckInvariants(c.drivers...); !done[2] || !c.drivers[1].Snapshot(0).Owner || !c.drivers[2].Snapshot(0).Owner || err == nil {
			t.Errorf("host 1's store returned %v; the invariants say %v", done[2], err)
		}
	},
}, {
	// Split authority. Host 1 takes page 0 through the short view, so host
	// 0 keeps the rest authority; then host 2 loads offset 4000 read-only.
	// Host 1 answers with the short page only, host 0, no owner, answers
	// no page request, and host 2 never sends a rest request: the load
	// never returns. It should, with the rest from host 0.
	test:  "TestSplitAuthorityStrandsRestLoad",
	cfg:   fastConfig(1),
	steps: []step{{0, 1, opStore, NewAddr(0, 0).Short()}, {100 * time.Millisecond, 2, opLoad, NewAddr(0, 4000)}},
	until: 10*time.Second + 100*time.Millisecond,
	check: func(t *testing.T, c *testCluster, done []bool) {
		if r := c.drivers[2].Metrics().Retries; done[1] || !c.drivers[0].Snapshot(0).RestOwner || r != 198 {
			t.Errorf("the load returned %v after %d retries", done[1], r)
		}
	},
}, {
	// Stranded grant. Host 1's NIC is down for the 5 ms in which host 0's
	// grant lands, and host 0's client then purges its read-only copy.
	// Re-sending a lost grant needs the short page resident, so nobody
	// can: no host owns page 0 and host 1's store never returns. The
	// authority should survive the purge.
	test: "TestStrandedGrantLosesOwnership",
	cfg:  fastConfig(1),
	steps: []step{{0, 1, opStore, NewAddr(0, 0)}, {8 * time.Millisecond, 1, nicDown, 0},
		{9 * time.Millisecond, 0, opPurge, NewAddr(0, 0)}, {13 * time.Millisecond, 1, nicUp, 0}},
	until: 2 * time.Second,
	check: func(t *testing.T, c *testCluster, done []bool) {
		for i, d := range c.drivers {
			if d.Snapshot(0).Owner {
				t.Errorf("host %d owns page 0", i)
			}
		}
		if r := c.drivers[1].Metrics().Retries; done[0] || c.drivers[0].page(0).grantedTo != 1 || r != 39 {
			t.Errorf("host 1's store returned %v after %d retries; host 0 granted to %d", done[0], r, c.drivers[0].page(0).grantedTo)
		}
	},
}}

// playDefect plays the rows of the calling test.
func playDefect(t *testing.T) {
	n := 0
	for _, row := range defects {
		if row.test != t.Name() {
			continue
		}
		n++
		c := newTestCluster(t, 3, ethernet.DefaultParams(), row.cfg)
		c.drivers[0].CreatePage(0)
		done := make([]bool, len(row.steps))
		for i, s := range row.steps {
			i, s, d := i, s, c.drivers[s.host]
			c.k.After(s.at, "step", func() {
				switch s.op {
				case nicDown, nicUp:
					d.nic.SetDown(s.op == nicDown)
					return
				}
				c.spawn(s.host, fmt.Sprint("step", i), func(p *host.Proc) {
					var err error
					switch s.op {
					case opStore:
						if err = d.MapIn(p, RW, vm.PageID(0)); err == nil {
							err = d.Store(p, RW, s.addr, 4, uint64(i+1))
						}
					case opLoad:
						if err = d.MapIn(p, RO, vm.PageID(0)); err == nil {
							_, err = d.Load(p, RO, s.addr, 4)
						}
					case opPurge:
						err = d.Purge(p, RO, s.addr)
					}
					if err != nil {
						t.Errorf("step %d: %v", i, err)
					}
					done[i] = true
				})
			})
		}
		c.run(t, row.until)
		row.check(t, c, done)
	}
	if n == 0 {
		t.Fatal("no defect row names this test")
	}
}

func TestPhantomGrantMintsSecondOwner(t *testing.T)  { playDefect(t) }
func TestSplitAuthorityStrandsRestLoad(t *testing.T) { playDefect(t) }
func TestStrandedGrantLosesOwnership(t *testing.T)   { playDefect(t) }
