package mether_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"mether"
	"mether/internal/core"
	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/workload"
)

// TestTrunkPartitionAndPlacement covers trunk-aware segment placement
// (TestHostsSitOnTheBlockPartition covers the partition itself).
func TestTrunkPartitionAndPlacement(t *testing.T) {
	w := mether.NewWorld(mether.Config{Hosts: 8, Pages: 8, Seed: 3, Trunks: 4})
	defer w.Shutdown()
	if w.Trunks() != 4 {
		t.Fatalf("Trunks() = %d, want 4", w.Trunks())
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
}

// TestHostsSitOnTheBlockPartition: on every world of up to 64 hosts and
// every trunk count, host i's NIC is on the bus of trunk i*Trunks/Hosts,
// TrunkOf says so, and FirstHostOnTrunk names the lowest host there.
func TestHostsSitOnTheBlockPartition(t *testing.T) {
	for hosts := 1; hosts <= 64; hosts++ {
		for trunks := 1; trunks <= hosts; trunks++ {
			w := mether.NewWorld(mether.Config{Hosts: hosts, Pages: 1, Trunks: trunks})
			placed := 0
			for trunk := 0; trunk < trunks; trunk++ {
				first := -1
				for _, n := range w.Topology().Bus(trunk).NICs() {
					name, ok := strings.CutPrefix(n.Name(), "host")
					if !ok {
						continue
					}
					i, _ := strconv.Atoi(name)
					if i*trunks/hosts != trunk || w.TrunkOf(i) != trunk {
						t.Errorf("%d hosts, %d trunks: host %d is on trunk %d, TrunkOf says %d, want %d",
							hosts, trunks, i, trunk, w.TrunkOf(i), i*trunks/hosts)
					}
					if first < 0 {
						first = i
					}
					placed++
				}
				if got := w.FirstHostOnTrunk(trunk); got != first || first < 0 {
					t.Errorf("%d hosts, %d trunks: FirstHostOnTrunk(%d) = %d, lowest host on its bus %d",
						hosts, trunks, trunk, got, first)
				}
			}
			if placed != hosts {
				t.Errorf("%d hosts, %d trunks: %d host NICs on the buses", hosts, trunks, placed)
			}
			w.Shutdown()
		}
	}
}

// TestRingSlotsBoundEveryPort: workload.Options.RingSlots is the medium's
// receive ring bound, so on a bridged world it bounds the bridge ports'
// rings as well as the hosts'.
func TestRingSlotsBoundEveryPort(t *testing.T) {
	const slots = 5
	w, err := workload.Options{Trunks: 2, RingSlots: slots}.World(6, 8, func(*mether.World) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	count := map[string]int{}
	for trunk := 0; trunk < w.Trunks(); trunk++ {
		for _, n := range w.Topology().Bus(trunk).NICs() {
			kind := strings.TrimRight(n.Name(), "0123456789")
			count[kind]++
			if n.RingCap() != slots {
				t.Errorf("trunk %d: %s's ring holds %d frames, want %d", trunk, n.Name(), n.RingCap(), slots)
			}
		}
	}
	if got := fmt.Sprint(count); got != "map[bridge:2 host:6]" {
		t.Errorf("ports on the buses: %s, want both ends of one bridge and 6 hosts", got)
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
	kernelServer := core.DefaultConfig(0)
	kernelServer.KernelServer = true
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
		{"a host id past the wire's", mether.Config{Hosts: 1<<15 + 1}, false, false},
		{"a page past the wire's", mether.Config{Pages: 1<<16 + 1}, false, false},
		{"negative pages", mether.Config{Pages: -1}, false, false},
		{"a negative quantum", mether.Config{HostParams: host.Params{Quantum: -time.Millisecond}}, false, false},
		{"a fabric with no TxQueue", mether.Config{Medium: mether.MediumConfig{Kind: mether.MediumFabric, Fabric: mether.FabricParams{BandwidthBps: 1e9}}}, false, false},
		{"an unknown topology shape", mether.Config{Hosts: 4, Trunks: 2, Medium: mether.MediumConfig{Topology: ethernet.TopologyConfig{Shape: 7}}}, false, false},
		{"a negative Ethernet bandwidth", mether.Config{Medium: mether.MediumConfig{Ethernet: mether.EthernetParams{BandwidthBps: -1}}}, false, false},
		{"certain Ethernet loss", mether.Config{Medium: mether.MediumConfig{Ethernet: mether.EthernetParams{BandwidthBps: 1e7, LossRate: 1}}}, true, false},
		{"an Ethernet loss rate of 2", mether.Config{Medium: mether.MediumConfig{Ethernet: mether.EthernetParams{BandwidthBps: 1e7, LossRate: 2}}}, false, false},
		{"a negative Ethernet loss rate", mether.Config{Medium: mether.MediumConfig{Ethernet: mether.EthernetParams{BandwidthBps: 1e7, LossRate: -0.1}}}, false, false},
		{"a fabric loss rate of 1.5", mether.Config{Medium: mether.MediumConfig{Kind: mether.MediumFabric, Fabric: mether.FabricParams{BandwidthBps: 1e9, TxQueue: 64, LossRate: 1.5}}}, false, false},
		{"an Ethernet loss rate and no bandwidth", mether.Config{Medium: mether.MediumConfig{Ethernet: mether.EthernetParams{LossRate: 0.5}}}, false, false},
		{"an Ethernet loss rate of 2 and no bandwidth", mether.Config{Medium: mether.MediumConfig{Ethernet: mether.EthernetParams{LossRate: 2}}}, false, false},
		{"a host cost model without a quantum", mether.Config{HostParams: host.Params{CtxSwitch: time.Millisecond}}, false, false},
		{"a negative Ethernet ring", mether.Config{Medium: mether.MediumConfig{Ethernet: mether.EthernetParams{BandwidthBps: 1e7, RxRing: -1}}}, false, false},
		{"a negative fabric ring", mether.Config{Medium: mether.MediumConfig{Kind: mether.MediumFabric, Fabric: mether.FabricParams{BandwidthBps: 1e9, TxQueue: 64, RxRing: -1}}}, false, false},
		{"a negative bridge delay", mether.Config{Hosts: 4, Trunks: 2, Medium: mether.MediumConfig{Topology: ethernet.TopologyConfig{BridgeDelay: -time.Millisecond}}}, false, false},
		{"a negative backlog up", mether.Config{Hosts: 4, Trunks: 2, Medium: mether.MediumConfig{Topology: ethernet.TopologyConfig{BacklogUp: -5 * time.Millisecond}}}, false, false},
		{"a negative backlog down", mether.Config{Hosts: 4, Trunks: 2, Medium: mether.MediumConfig{Topology: ethernet.TopologyConfig{BacklogDown: -time.Millisecond}}}, false, false},
		{"a core block that sets only KernelServer", mether.Config{Core: core.Config{KernelServer: true}}, false, false},
		{"a core block that sets only NumPages", mether.Config{Core: core.Config{NumPages: 8}}, true, true},
		{"a kernel-server core block", mether.Config{Core: kernelServer}, true, true},
		{"a negative core PacketCost", mether.Config{Core: core.Config{RetryTimeout: time.Second, PacketCost: -1}}, false, false},
		{"a negative core ByteCost", mether.Config{Core: core.Config{RetryTimeout: time.Second, ByteCost: -1}}, false, false},
		{"a negative core MinResidency", mether.Config{Core: core.Config{RetryTimeout: time.Second, MinResidency: -time.Second}}, false, false},
		{"a negative core Redundancy", mether.Config{Core: core.Config{RetryTimeout: time.Second, Redundancy: -3}}, false, false},
		{"a negative core ClaimRetries", mether.Config{Core: core.Config{RetryTimeout: time.Second, ClaimRetries: -2}}, false, false},
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
