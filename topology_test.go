package mether_test

import (
	"fmt"
	"testing"
	"time"

	"mether"
	"mether/internal/ethernet"
	"mether/internal/host"
)

// TestTrunkPartitionAndPlacement covers the public topology surface: the
// default contiguous block partition, the trunk accessors, and
// trunk-aware segment placement.
func TestTrunkPartitionAndPlacement(t *testing.T) {
	w := mether.NewWorld(mether.Config{Hosts: 8, Pages: 8, Seed: 3, Trunks: 4})
	defer w.Shutdown()
	if w.Trunks() != 4 {
		t.Fatalf("Trunks() = %d, want 4", w.Trunks())
	}
	for i := 0; i < 8; i++ {
		if got, want := w.TrunkOf(i), i/2; got != want {
			t.Errorf("TrunkOf(%d) = %d, want %d (block partition)", i, got, want)
		}
	}
	if h := w.FirstHostOnTrunk(2); h != 4 {
		t.Errorf("FirstHostOnTrunk(2) = %d, want 4", h)
	}
	seg, err := w.CreateSegmentOnTrunk("far", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap := w.Driver(6).Snapshot(0); !snap.Owner {
		t.Errorf("segment %q should be owned by host 6 (first host of trunk 3): %+v", seg.Name(), snap)
	}
	if _, err := w.CreateSegmentOnTrunk("bad", 1, 4); err == nil {
		t.Error("CreateSegmentOnTrunk accepted an out-of-range trunk")
	}

	// Custom placement overrides the block partition.
	w2 := mether.NewWorld(mether.Config{
		Hosts: 4, Pages: 8, Seed: 3, Trunks: 2,
		TrunkOf: func(host int) int { return host % 2 },
	})
	defer w2.Shutdown()
	for i := 0; i < 4; i++ {
		if got := w2.TrunkOf(i); got != i%2 {
			t.Errorf("custom TrunkOf(%d) = %d, want %d", i, got, i%2)
		}
	}
}

// TestCrossTrunkPurgeOrderingDisagrees reproduces the paper's central
// multi-trunk argument at the protocols layer (Mether drivers and
// servers, not raw frames as in ethernet's bridge test): two owners on
// different trunks purge their stationary pages at the same virtual
// instant, and observers on the two trunks see the refreshes land in
// opposite orders — there is no global purge ordering across bridges.
// The bridge delay sits well above the hosts' ~3ms scheduling
// granularity so the observers' polls resolve the two arrivals.
func TestCrossTrunkPurgeOrderingDisagrees(t *testing.T) {
	w := mether.NewWorld(mether.Config{
		Hosts: 4, Pages: 8, Seed: 11, Trunks: 2,
		Medium: mether.MediumConfig{Topology: ethernet.TopologyConfig{BridgeDelay: 20 * time.Millisecond}},
	})
	defer w.Shutdown()
	segA, err := w.CreateSegment("a", 1, 0) // owner host 0, trunk 0
	if err != nil {
		t.Fatal(err)
	}
	segB, err := w.CreateSegment("b", 1, 2) // owner host 2, trunk 1
	if err != nil {
		t.Fatal(err)
	}
	capA, capB := segA.CapRW(), segB.CapRW()

	// Observers (one per trunk) hold replicas of both pages and record
	// which owner's update becomes visible first. Polling sleeps rather
	// than spins so the Mether server handles each refresh promptly.
	firstSeen := make([]string, 4)
	errs := make([]error, 4)
	observe := func(hostIdx int) {
		w.Spawn(hostIdx, fmt.Sprintf("obs%d", hostIdx), func(env *mether.Env) {
			ma, err := env.Attach(capA.ReadOnly(), mether.RO)
			if err != nil {
				errs[hostIdx] = err
				return
			}
			mb, err := env.Attach(capB.ReadOnly(), mether.RO)
			if err != nil {
				errs[hostIdx] = err
				return
			}
			aAddr, bAddr := ma.Addr(0, 0).Short(), mb.Addr(0, 0).Short()
			for env.Now() < 5*time.Second {
				env.SleepFor(50 * time.Microsecond)
				va, err := ma.Load32(aAddr)
				if err != nil {
					errs[hostIdx] = err
					return
				}
				vb, err := mb.Load32(bAddr)
				if err != nil {
					errs[hostIdx] = err
					return
				}
				switch {
				case va == 1 && vb == 1:
					errs[hostIdx] = fmt.Errorf("host %d saw both updates within one 50µs poll", hostIdx)
					return
				case va == 1:
					firstSeen[hostIdx] = "A"
					return
				case vb == 1:
					firstSeen[hostIdx] = "B"
					return
				}
			}
			errs[hostIdx] = fmt.Errorf("host %d never saw an update", hostIdx)
		})
	}
	observe(1) // trunk 0
	observe(3) // trunk 1

	// The two owners write and purge at the same virtual instant.
	write := func(hostIdx int, c mether.Capability) {
		w.Spawn(hostIdx, fmt.Sprintf("w%d", hostIdx), func(env *mether.Env) {
			m, err := env.Attach(c, mether.RW)
			if err != nil {
				errs[hostIdx] = err
				return
			}
			a := m.Addr(0, 0).Short()
			env.SleepFor(200*time.Millisecond - env.Now())
			if err := m.Store32(a, 1); err != nil {
				errs[hostIdx] = err
				return
			}
			errs[hostIdx] = m.Purge(a)
		})
	}
	write(0, capA)
	write(2, capB)

	w.RunUntil(10 * time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}
	if firstSeen[1] != "A" {
		t.Errorf("trunk-0 observer saw %q first, want its local purge A", firstSeen[1])
	}
	if firstSeen[3] != "B" {
		t.Errorf("trunk-1 observer saw %q first, want its local purge B", firstSeen[3])
	}
	if firstSeen[1] == firstSeen[3] {
		t.Error("both trunks agreed on purge order; the bridge hazard did not reproduce")
	}
	if bs := w.BridgeStats(); bs.Forwarded == 0 {
		t.Error("no frames crossed the bridge")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestConfigValidate covers the one rule set for configurations no
// world can be built from: Validate accepts the normal and boundary rows
// and returns each error row as an error, and NewWorld — for callers that
// skipped it — panics with the same message. The normal rows are built;
// the boundary rows, a world of 32 768 hosts among them, are only judged.
func TestConfigValidate(t *testing.T) {
	fabric := mether.MediumConfig{Kind: mether.MediumFabric}
	for _, row := range []struct {
		name  string
		cfg   mether.Config
		valid bool
		build bool // a valid row small enough to build
	}{
		{"zero Config", mether.Config{}, true, true},
		{"two trunks of four hosts", mether.Config{Hosts: 4, Trunks: 2}, true, true},
		{"a fabric", mether.Config{Hosts: 3, Medium: fabric}, true, true},
		{"one page", mether.Config{Pages: 1}, true, true},
		{"every host id the wire can name", mether.Config{Hosts: 1 << 15}, true, false},
		{"every page the wire can name", mether.Config{Pages: 1 << 16}, true, false},
		{"a one-nanosecond quantum", mether.Config{HostParams: host.Params{Quantum: 1}}, true, false},
		{"unknown medium", mether.Config{Medium: mether.MediumConfig{Kind: "token-ring"}}, false, false},
		{"trunks over hosts", mether.Config{Hosts: 2, Trunks: 3}, false, false},
		{"negative trunks", mether.Config{Hosts: 2, Trunks: -1}, false, false},
		{"trunks on a fabric", mether.Config{Hosts: 4, Trunks: 2, Medium: fabric}, false, false},
		{"TrunkOf out of range", mether.Config{Hosts: 4, Trunks: 2, TrunkOf: func(int) int { return 2 }}, false, false},
		{"a host id past the wire's", mether.Config{Hosts: 1<<15 + 1}, false, false},
		{"a page past the wire's", mether.Config{Pages: 1<<16 + 1}, false, false},
		{"negative pages", mether.Config{Pages: -1}, false, false},
		{"a negative quantum", mether.Config{HostParams: host.Params{Quantum: -time.Millisecond}}, false, false},
	} {
		err := row.cfg.Validate()
		switch {
		case row.valid && err != nil:
			t.Errorf("%s: Validate refused it: %v", row.name, err)
		case !row.valid && err == nil:
			t.Errorf("%s: Validate accepted it", row.name)
		case row.build:
			mether.NewWorld(row.cfg).Shutdown()
		case !row.valid:
			func() {
				defer func() {
					if got := recover(); got != err.Error() {
						t.Errorf("%s: NewWorld panicked with %v, Validate said %q", row.name, got, err)
					}
				}()
				mether.NewWorld(row.cfg).Shutdown()
			}()
		}
	}
}
