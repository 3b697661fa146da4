// Package mether is a reproduction of the Mether distributed shared
// memory (Minnich & Farber, "Reducing Host Load, Network Load, and
// Latency in a Distributed Shared Memory", ICDCS 1990) as a deterministic
// simulation library.
//
// A World is a simulated cluster: SunOS-like workstations with
// round-robin schedulers, a shared 10 Mb/s broadcast Ethernet, and a
// Mether kernel driver plus user-level server on every host. Application
// code runs as simulated processes spawned with World.Spawn and accesses
// Mether segments through view-encoded addresses exactly as the paper
// describes: address bits select full vs short (32-byte) pages and
// demand- vs data-driven fault semantics, while the choice of mapping
// (read-only inconsistent vs writable consistent) is made at Attach time.
//
// A minimal session:
//
//	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 4})
//	seg, _ := w.CreateSegment("counter", 1, 0)
//	cap := seg.CapRW()
//	w.Spawn(0, "writer", func(env *mether.Env) {
//	    m, _ := env.Attach(cap, mether.RW)
//	    m.Store32(m.Addr(0, 0), 42)
//	    m.Purge(m.Addr(0, 0).Short())
//	})
//	w.Spawn(1, "reader", func(env *mether.Env) {
//	    m, _ := env.Attach(cap.ReadOnly(), mether.RO)
//	    v, _ := m.Load32(m.Addr(0, 0).Short().DataDriven())
//	    _ = v
//	})
//	w.Run()
package mether

import (
	"errors"
	"fmt"
	"time"

	"mether/internal/core"
	"mether/internal/ethernet"
	"mether/internal/fabric"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
	"mether/internal/trace"
	"mether/internal/vm"
)

// Re-exported view types so callers need only this package.
type (
	// Addr is a Mether virtual address; view bits are set with Short,
	// Full, DataDriven and Demand.
	Addr = core.Addr
	// Mode selects the read-only (inconsistent) or writable (consistent)
	// mapping.
	Mode = core.Mode
)

// Mapping modes.
const (
	RO = core.RO
	RW = core.RW
)

// Page geometry re-exports.
const (
	PageSize  = vm.PageSize
	ShortSize = vm.ShortSize
)

// Medium kinds for MediumConfig.Kind (and a sweep Scenario's Medium).
const (
	// MediumEthernet is the paper's shared broadcast bus (the default).
	MediumEthernet = "ethernet"
	// MediumFabric is the RDMA-like point-to-point interconnect: per-link
	// queues and bandwidth, broadcast as sender-paid unicast fan-out.
	MediumFabric = "fabric"
)

// EthernetParams and FabricParams re-export the two media's parameter
// types so callers configure either interconnect through this package
// alone, like FaultSchedule does for the fault plane.
type (
	EthernetParams = ethernet.Params
	FabricParams   = fabric.Params
)

// DefaultEthernetParams returns the default 10 Mb/s shared-bus model.
func DefaultEthernetParams() EthernetParams { return ethernet.DefaultParams() }

// DefaultFabricParams returns the default RDMA-like fabric model.
func DefaultFabricParams() FabricParams { return fabric.DefaultParams() }

// MediumConfig scopes everything about the interconnect in one block:
// which medium kind carries the frames, its parameters, and the
// network-shape knobs (bridged topology, per-host ring sizing) that
// only make sense medium-side. The zero value is the classic shared
// 10 Mb/s Ethernet with uniform rings.
type MediumConfig struct {
	// Kind selects the backend: MediumEthernet ("" defaults to it) or
	// MediumFabric.
	Kind string
	// Ethernet is the shared-bus model (default ethernet.DefaultParams);
	// with Config.Trunks > 1 it parameterizes every trunk. Used only
	// when Kind is MediumEthernet.
	Ethernet ethernet.Params
	// Fabric is the point-to-point model (default fabric.DefaultParams).
	// Used only when Kind is MediumFabric.
	Fabric FabricParams
	// Topology parameterizes the bridges of a multi-trunk Ethernet
	// (shape, store-and-forward delay, backlogs, per-port loss); ignored
	// when Config.Trunks <= 1. A fabric has no trunks to bridge.
	Topology ethernet.TopologyConfig
	// RingOf sizes host i's receive ring, overriding the uniform
	// per-medium RxRing when non-nil. Only hosts that see fan-in bursts
	// (segment owners, servers) need deep rings; role-aware sizing keeps
	// ring memory proportional to real fan-in instead of paying the
	// worst case times the host count. Rings are physically lazy on both
	// media, so the returned value is a drop bound, not an allocation.
	RingOf func(host int) int
}

// Config describes a simulated cluster. Zero-valued fields get defaults.
type Config struct {
	// Hosts is the number of workstations (default 2).
	Hosts int
	// Pages bounds the Mether page space (default 64).
	Pages int
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// HostParams is the workstation cost model (default host.DefaultParams).
	HostParams host.Params
	// Medium scopes the interconnect: kind, parameters, topology and
	// ring sizing. The zero value is the classic shared Ethernet.
	Medium MediumConfig
	// Core is the driver/server cost model (default core.DefaultConfig).
	// Its TrunkOf/TrunkHops fields are derived by NewWorld from the
	// world-level Trunks/TrunkOf placement — values set here are
	// overwritten, so the two configs cannot disagree.
	Core core.Config
	// Trunks is the number of Ethernet trunks (default 1, the classic
	// single broadcast bus). With more than one, hosts are partitioned
	// across trunks joined by store-and-forward bridges per
	// Medium.Topology — the paper's real multi-trunk network, where
	// broadcasts reach other trunks late and cross-trunk purge ordering
	// is not globally consistent. Only meaningful on MediumEthernet: a
	// point-to-point fabric has no trunks (NewWorld rejects the combination).
	Trunks int
	// TrunkOf places host i on a trunk (must return 0..Trunks-1). Nil
	// uses the default contiguous block partition: host i sits on trunk
	// i*Trunks/Hosts, like machines sharing the wing of a building.
	// NewWorld materializes this placement once and feeds it to the
	// drivers (core.Config.TrunkOf); there is no second copy to keep in
	// sync.
	TrunkOf func(host int) int
}

func (c Config) withDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 2
	}
	if c.Pages == 0 {
		c.Pages = 64
	}
	if c.HostParams.Quantum == 0 {
		c.HostParams = host.DefaultParams()
	}
	if c.Medium.Kind == "" {
		c.Medium.Kind = MediumEthernet
	}
	if c.Medium.Ethernet.BandwidthBps == 0 {
		c.Medium.Ethernet = ethernet.DefaultParams()
	}
	if c.Medium.Fabric.BandwidthBps == 0 {
		c.Medium.Fabric = fabric.DefaultParams()
	}
	if c.Core.NumPages == 0 {
		c.Core = core.DefaultConfig(c.Pages)
	}
	c.Core.NumPages = c.Pages
	if c.Trunks == 0 {
		c.Trunks = 1
	}
	return c
}

// Validate reports a configuration NewWorld cannot build: more hosts than
// the wire format can name, a page count outside 1..proto.MaxPages, a
// quantum that is not positive, an unknown medium kind, a trunk count
// outside 1..Hosts, trunks on a fabric, or a TrunkOf placement naming a
// trunk that does not exist. Zero-valued fields are judged after
// defaulting, so the zero Config is valid.
// NewWorld panics with the same message; callers holding configuration
// from outside the program (sweep cells, flags) call Validate first.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Hosts > proto.MaxHostID+1 {
		return fmt.Errorf("mether: %d hosts, beyond the wire format's %d", c.Hosts, proto.MaxHostID+1)
	}
	if c.Pages < 1 || c.Pages > proto.MaxPages {
		return fmt.Errorf("mether: %d pages outside 1..%d", c.Pages, proto.MaxPages)
	}
	if c.HostParams.Quantum <= 0 {
		return fmt.Errorf("mether: host quantum %v is not positive", c.HostParams.Quantum)
	}
	if c.Medium.Kind != MediumEthernet && c.Medium.Kind != MediumFabric {
		return fmt.Errorf("mether: unknown medium kind %q (want %q or %q)",
			c.Medium.Kind, MediumEthernet, MediumFabric)
	}
	if c.Trunks < 1 || c.Trunks > c.Hosts {
		return fmt.Errorf("mether: %d trunks for %d hosts", c.Trunks, c.Hosts)
	}
	if c.Medium.Kind == MediumFabric && c.Trunks > 1 {
		return errors.New("mether: trunks are an Ethernet concept; a fabric has no broadcast domains to bridge")
	}
	if c.Trunks > 1 && c.TrunkOf != nil {
		for i := 0; i < c.Hosts; i++ {
			if t := c.TrunkOf(i); t < 0 || t >= c.Trunks {
				return fmt.Errorf("mether: TrunkOf(%d) = %d outside 0..%d", i, t, c.Trunks-1)
			}
		}
	}
	return nil
}

// World is one simulated Mether cluster.
type World struct {
	cfg Config
	k   *sim.Kernel
	// med is the interconnect: the fabric, or the Ethernet topology (one
	// trunk is the classic single bus). Hosts attach through it, counters
	// and footprint come out of it, taps listen on it.
	med      medium.Medium
	topo     *ethernet.Topology // med's concrete type on Ethernet; nil on a fabric
	trunkOf  []int              // host index -> trunk (nil for single trunk)
	hosts    []*host.Host
	drivers  []*core.Driver
	segs     map[string]*Segment
	nextPage vm.PageID
	nextTok  uint64
}

// NewWorld builds a cluster and starts the Mether server on every host.
func NewWorld(cfg Config) *World {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	w := &World{
		cfg:  cfg,
		k:    sim.New(cfg.Seed),
		segs: make(map[string]*Segment),
	}
	// Size the kernel's same-instant run queue from the fan-in model:
	// the widest same-instant burst is a broadcast delivery, which wakes
	// at most one interrupt-coalesced server per host, plus a small
	// constant for timers and the handful of client wakeups any single
	// event can produce. Invariant: reserve >= Hosts + O(1); anything
	// more is dead capacity (the old blanket 8× over-reserved every
	// world), anything less only costs a doubling copy, never
	// correctness.
	w.k.ReserveRunq(cfg.Hosts + 16)
	coreCfg := cfg.Core
	// The drivers learn the cluster size for redundant-fetch target
	// selection (a no-op at the default Redundancy of 0/1).
	coreCfg.NumHosts = cfg.Hosts
	// NewWorld is the single place the trunk placement is materialized
	// and handed to the drivers: coreCfg.TrunkOf/TrunkHops are
	// unconditionally derived here (nil for a single-trunk or fabric
	// world), so the world-level and core-level configs cannot disagree.
	coreCfg.TrunkOf = nil
	coreCfg.TrunkHops = nil
	defaultRing := cfg.Medium.Ethernet.RxRing
	if cfg.Medium.Kind == MediumFabric {
		w.med = fabric.New(w.k, cfg.Medium.Fabric)
		defaultRing = cfg.Medium.Fabric.RxRing
	} else {
		w.topo = ethernet.NewTopology(w.k, cfg.Trunks, cfg.Medium.Ethernet, cfg.Medium.Topology)
		w.med = w.topo
	}
	if cfg.Trunks > 1 {
		w.trunkOf = make([]int, cfg.Hosts)
		for i := range w.trunkOf {
			t := i * cfg.Trunks / cfg.Hosts
			if cfg.TrunkOf != nil {
				t = cfg.TrunkOf(i)
			}
			w.trunkOf[i] = t
		}
		w.topo.Place(w.trunkOf)
		// The drivers learn the trunk map so cross-trunk protocol hazards
		// (stale refreshes arriving after newer ones reordered by bridge
		// queues) are counted, not just possible.
		coreCfg.TrunkOf = w.trunkOf
		// Bridge-hop distances feed the redundant-fetch nearest-first
		// target ordering (same trunk beats one hop beats two).
		coreCfg.TrunkHops = w.topo.Hops
	}
	for i := 0; i < cfg.Hosts; i++ {
		h := host.New(w.k, i, fmt.Sprintf("host%d", i), cfg.HostParams)
		var d *core.Driver
		ring := defaultRing
		if cfg.Medium.RingOf != nil {
			ring = cfg.Medium.RingOf(i)
		}
		port := w.med.AttachPortWithRing(h.Name(), func() { d.FrameArrived() }, ring)
		d = core.New(h, port, coreCfg)
		d.StartServer()
		w.hosts = append(w.hosts, h)
		w.drivers = append(w.drivers, d)
	}
	return w
}

// NumHosts returns the cluster size.
func (w *World) NumHosts() int { return len(w.hosts) }

// Trunks returns the number of Ethernet trunks (1 for the classic
// single-bus world).
func (w *World) Trunks() int {
	if w.topo == nil {
		return 1
	}
	return w.topo.Trunks()
}

// TrunkOf returns the trunk host hostIdx is attached to.
func (w *World) TrunkOf(hostIdx int) int {
	if w.trunkOf == nil {
		return 0
	}
	return w.trunkOf[hostIdx]
}

// FirstHostOnTrunk returns the lowest-numbered host attached to the
// given trunk, or -1 if the trunk is empty. Workloads use it for
// trunk-aware placement: putting a segment owner on a chosen trunk
// decides which trunk serves that segment's demand requests.
func (w *World) FirstHostOnTrunk(trunk int) int {
	for i := range w.hosts {
		if w.TrunkOf(i) == trunk {
			return i
		}
	}
	return -1
}

// BridgeStats returns the aggregated store-and-forward counters of the
// topology's bridges (zero for a single-trunk world).
func (w *World) BridgeStats() ethernet.BridgeStats {
	if w.topo == nil {
		return ethernet.BridgeStats{}
	}
	return w.topo.BridgeStats()
}

// Now returns the current virtual time.
func (w *World) Now() time.Duration { return w.k.Now() }

// Run executes the simulation until it quiesces (all processes blocked
// or finished) and returns the final virtual time.
func (w *World) Run() time.Duration { return w.k.Run() }

// RunUntil executes the simulation up to the given virtual deadline.
func (w *World) RunUntil(d time.Duration) time.Duration { return w.k.RunUntil(d) }

// Shutdown releases all simulation goroutines. Call it when done with a
// World, especially in tests and sweeps that build many worlds.
func (w *World) Shutdown() { w.k.Shutdown() }

// Spawn starts a simulated application process on a host. fn must express
// computation via Env.Compute and blocking via the Env sleep helpers so
// that virtual time advances.
func (w *World) Spawn(hostIdx int, name string, fn func(env *Env)) {
	h := w.hosts[hostIdx]
	d := w.drivers[hostIdx]
	h.Spawn(name, func(p *host.Proc) {
		fn(&Env{w: w, host: hostIdx, p: p, d: d})
	})
}

// Kernel exposes the simulation kernel (advanced use: custom events).
func (w *World) Kernel() *sim.Kernel { return w.k }

// Driver exposes a host's Mether driver for metrics and invariant checks
// (advanced use; the type lives in an internal package).
func (w *World) Driver(hostIdx int) *core.Driver { return w.drivers[hostIdx] }

// HostMachine exposes a host's scheduler (advanced use).
func (w *World) HostMachine(hostIdx int) *host.Host { return w.hosts[hostIdx] }

// NetStats returns the interconnect counters — summed over every trunk
// on a multi-trunk Ethernet, where a frame forwarded across bridges is
// counted on each trunk it crosses: cross-trunk broadcasts genuinely
// occupy every wire they transit. On a fabric the fan-out/link-queue
// fields (FanoutFrames, LinkOverflows, LinkMaxQueued) are populated;
// on Ethernet they are always zero.
func (w *World) NetStats() medium.Stats { return w.med.Stats() }

// TrunkUtilization returns each trunk's own wire utilization (busy time
// as a fraction of the given wall time) and transmitted frame count, in
// trunk order. Unlike NetStats nothing is summed: multi-trunk reports
// use it to show which trunk's wire saturates. Nils for a single-bus or
// fabric world, so report fields fed from it stay omitted there.
func (w *World) TrunkUtilization(wall time.Duration) ([]float64, []uint64) {
	if w.Trunks() == 1 {
		return nil, nil
	}
	util := make([]float64, w.Trunks())
	frames := make([]uint64, w.Trunks())
	for i := range util {
		bus := w.topo.Bus(i)
		util[i] = bus.Utilization(wall)
		frames[i] = bus.Stats().Frames
	}
	return util, frames
}

// MemFootprint returns the world's structural memory footprint in
// bytes: every driver's directory/frame/queue walk plus the network's
// rings and pools. It is a deterministic function of simulated
// behaviour — identical across runs, GC timing and sweep worker counts
// — which is why reports carry it instead of runtime heap statistics
// (those are polluted by whatever else shares the process, including
// parallel sweep workers). Monotone structures only: the walk counts
// peak-shaped capacity (rings, pools, tiers never shrink), so it is a
// resident-footprint measure, not an instantaneous live-byte count.
func (w *World) MemFootprint() uint64 {
	var b uint64
	for _, d := range w.drivers {
		b += d.MemFootprint()
	}
	b += w.med.MemFootprint()
	b += uint64(len(w.trunkOf)) * 8
	return b
}

// EventsDispatched returns the number of simulation-kernel events
// executed so far — a deterministic measure of engine work, used by
// sweep throughput records (events/sec, allocs/event).
func (w *World) EventsDispatched() uint64 { return w.k.Dispatched() }

// Engine returns the kernel's own counters: how those events came to run
// (popped, batched, skipped in the repeat lane) and how many handed the
// simulation to another process's coroutine, the engine's dearest kind.
// They measure the engine, not the simulated system.
func (w *World) Engine() sim.Counters { return w.k.Counters() }

// ContextSwitches returns a host's dispatch count.
func (w *World) ContextSwitches(hostIdx int) uint64 { return w.hosts[hostIdx].ContextSwitches() }

// CheckInvariants verifies the cluster-wide single-consistent-copy
// invariants; it returns nil when they hold.
func (w *World) CheckInvariants() error { return core.CheckInvariants(w.drivers...) }

// AttachTap adds a passive protocol analyzer to the cluster's
// interconnect and returns its log (the simulation's tcpdump). max
// bounds retained entries; 0 keeps everything. Attach taps before
// running. On a multi-trunk world the tap listens on trunk 0 (the
// backbone, where ethernet.Topology puts every station attached after
// the placed hosts), like a real analyzer plugged into one segment. On
// a fabric there is no promiscuous mode: the tap sees only broadcast
// fan-out copies addressed to it, never host-to-host unicasts.
func (w *World) AttachTap(max int) *trace.Log { return trace.Tap(w.k, w.med, max) }
