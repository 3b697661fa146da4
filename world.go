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
	"strconv"
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
	// MediumFabric is the RDMA-like point-to-point interconnect: one
	// transmitter per port with its own queue and bandwidth, broadcast as
	// sender-paid unicast fan-out.
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

// DefaultFabricParams returns the default RDMA-like fabric model: 1 Gb/s
// per port, 2µs link latency and a 64-send transmit queue per port.
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
	// Ethernet is the shared-bus model (default ethernet.DefaultParams
	// when wholly zero); with Config.Trunks > 1 it parameterizes every
	// trunk. Used only when Kind is MediumEthernet.
	Ethernet ethernet.Params
	// Fabric is the point-to-point model (default fabric.DefaultParams
	// when wholly zero). Used only when Kind is MediumFabric.
	Fabric FabricParams
	// Topology parameterizes the bridges of a multi-trunk Ethernet
	// (shape, store-and-forward delay, backlogs); ignored when
	// Config.Trunks <= 1. A fabric has no trunks to bridge.
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
	// HostParams is the workstation cost model (default host.DefaultParams
	// when wholly zero).
	HostParams host.Params
	// Medium scopes the interconnect: kind, parameters, topology and
	// ring sizing. The zero value is the classic shared Ethernet.
	Medium MediumConfig
	// Core is the driver/server cost model (default core.DefaultConfig,
	// when no field but NumPages is set). Its NumPages is Pages, whatever
	// is set here, so the two configs cannot disagree.
	Core core.Config
	// Trunks is the number of Ethernet trunks (default 1, the classic
	// single broadcast bus). With more than one, hosts are partitioned
	// across trunks joined by store-and-forward bridges per
	// Medium.Topology — the paper's real multi-trunk network, where
	// broadcasts reach other trunks late and cross-trunk purge ordering
	// is not globally consistent. Only meaningful on MediumEthernet: a
	// point-to-point fabric has no trunks (NewWorld rejects the combination).
	// Host i sits on trunk i*Trunks/Hosts, a contiguous block partition,
	// like machines sharing the wing of a building.
	Trunks int
}

func (c Config) withDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 2
	}
	if c.Pages == 0 {
		c.Pages = 64
	}
	// A parameter block is defaulted whole only when none of it is set:
	// one that sets a loss rate and no bandwidth is kept, for Validate to
	// refuse, rather than swapped for a lossless default.
	if c.HostParams == (host.Params{}) {
		c.HostParams = host.DefaultParams()
	}
	if c.Medium.Kind == "" {
		c.Medium.Kind = MediumEthernet
	}
	if c.Medium.Ethernet == (ethernet.Params{}) {
		c.Medium.Ethernet = ethernet.DefaultParams()
	}
	if c.Medium.Fabric == (fabric.Params{}) {
		c.Medium.Fabric = fabric.DefaultParams()
	}
	// The core block is unset when no field but NumPages, which Pages
	// decides, is.
	if c.Core == (core.Config{NumPages: c.Core.NumPages}) {
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
// quantum that is not positive, an unknown medium kind, a medium whose
// bandwidth (or, on a fabric, TxQueue) is not positive, a trunk count
// outside 1..Hosts, trunks on a fabric, an unknown topology shape, a
// loss probability (Ethernet or fabric) outside [0, 1], a negative
// receive ring, bridge delay or backlog, a core RetryTimeout that is not
// positive or a negative core PacketCost, ByteCost, MinResidency,
// Redundancy or ClaimRetries. Zero-valued fields are judged after
// defaulting, so the zero Config is valid; a HostParams, Ethernet,
// Fabric or Core block is defaulted only when wholly zero (Core: apart
// from NumPages), so one set in part is judged as given.
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
	if f := c.Medium.Fabric; c.Medium.Kind == MediumFabric && (f.BandwidthBps <= 0 || f.TxQueue <= 0) {
		return fmt.Errorf("mether: fabric bandwidth %d b/s and TxQueue %d must be positive", f.BandwidthBps, f.TxQueue)
	}
	if bw := c.Medium.Ethernet.BandwidthBps; c.Medium.Kind == MediumEthernet && bw <= 0 {
		return fmt.Errorf("mether: Ethernet bandwidth %d b/s is not positive", bw)
	}
	for _, p := range []float64{c.Medium.Ethernet.LossRate, c.Medium.Fabric.LossRate} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("mether: loss probability %v outside [0, 1]", p)
		}
	}
	if e, f := c.Medium.Ethernet.RxRing, c.Medium.Fabric.RxRing; min(e, f) < 0 {
		return fmt.Errorf("mether: receive ring %d (Ethernet) or %d (fabric) is negative", e, f)
	}
	if tc := c.Medium.Topology; min(tc.BridgeDelay, tc.BacklogDown, tc.BacklogUp) < 0 {
		return fmt.Errorf("mether: bridge delay %v or backlog %v down, %v up is negative", tc.BridgeDelay, tc.BacklogDown, tc.BacklogUp)
	}
	cc := c.Core
	if cc.RetryTimeout <= 0 {
		return fmt.Errorf("mether: core RetryTimeout %v is not positive", cc.RetryTimeout)
	}
	if min(cc.PacketCost, cc.ByteCost, cc.MinResidency) < 0 {
		return fmt.Errorf("mether: core PacketCost %v, ByteCost %v or MinResidency %v is negative", cc.PacketCost, cc.ByteCost, cc.MinResidency)
	}
	if min(cc.Redundancy, cc.ClaimRetries) < 0 {
		return fmt.Errorf("mether: core Redundancy %d or ClaimRetries %d is negative", cc.Redundancy, cc.ClaimRetries)
	}
	if c.Trunks < 1 || c.Trunks > c.Hosts {
		return fmt.Errorf("mether: %d trunks for %d hosts", c.Trunks, c.Hosts)
	}
	if c.Medium.Kind == MediumFabric && c.Trunks > 1 {
		return errors.New("mether: trunks are an Ethernet concept; a fabric has no broadcast domains to bridge")
	}
	if sh := c.Medium.Topology.Shape; c.Trunks > 1 && sh != ethernet.Star && sh != ethernet.Linear {
		return fmt.Errorf("mether: unknown topology shape %d", sh)
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
	defaultRing := cfg.Medium.Ethernet.RxRing
	var fab *fabric.Fabric
	if cfg.Medium.Kind == MediumFabric {
		fab = fabric.New(w.k, cfg.Medium.Fabric)
		w.med = fab
		defaultRing = cfg.Medium.Fabric.RxRing
	} else {
		w.topo = ethernet.NewTopology(w.k, cfg.Trunks, cfg.Medium.Ethernet, cfg.Medium.Topology)
		w.med = w.topo
	}
	// hops is the number of bridges between two hosts, nil when there
	// are none: the drivers count stale refreshes from other trunks
	// (reordered by bridge queues) and order redundant-fetch targets
	// nearest first by it.
	var hops func(a, b int) int
	if cfg.Trunks > 1 {
		hops = func(a, b int) int { return w.topo.Hops(w.TrunkOf(a), w.TrunkOf(b)) }
	}
	// Each kind of per-host record is one slice in host order, so a
	// broadcast's walk over its receivers — port, driver, host — goes
	// through memory in order rather than across the heap.
	n := cfg.Hosts
	hosts := make([]host.Host, n)
	drivers := make([]core.Driver, n)
	var nics []ethernet.NIC
	var ports []fabric.Port
	if fab != nil {
		ports = make([]fabric.Port, n)
	} else {
		nics = make([]ethernet.NIC, n)
	}
	names := hostNames(n)
	w.hosts = make([]*host.Host, n)
	w.drivers = make([]*core.Driver, n)
	for i := 0; i < n; i++ {
		h, d := &hosts[i], &drivers[i]
		h.Init(w.k, i, names[i], cfg.HostParams)
		ring := defaultRing
		if cfg.Medium.RingOf != nil {
			ring = cfg.Medium.RingOf(i)
		}
		var port medium.Port
		if fab != nil {
			fab.Join(&ports[i], h.Name(), d.FrameArrived, ring)
			port = &ports[i]
		} else {
			w.topo.Bus(w.TrunkOf(i)).Join(&nics[i], h.Name(), d.FrameArrived, ring)
			port = &nics[i]
		}
		d.Init(h, port, cfg.Core, n, hops)
		d.StartServer()
		w.hosts[i], w.drivers[i] = h, d
	}
	return w
}

// hostNames returns "host0" … "host<n-1>", all slices of one string.
func hostNames(n int) []string {
	var b []byte
	ends := make([]int, n)
	for i := range ends {
		b = strconv.AppendInt(append(b, "host"...), int64(i), 10)
		ends[i] = len(b)
	}
	all, names := string(b), make([]string, n)
	start := 0
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	return names
}

// NumHosts returns the cluster size.
func (w *World) NumHosts() int { return len(w.hosts) }

// Trunks returns the number of Ethernet trunks (1 for the classic
// single-bus world and for a fabric).
func (w *World) Trunks() int { return w.cfg.Trunks }

// TrunkOf returns the trunk host hostIdx is attached to: the block
// partition i*Trunks/Hosts.
func (w *World) TrunkOf(hostIdx int) int { return hostIdx * w.cfg.Trunks / w.cfg.Hosts }

// FirstHostOnTrunk returns the lowest-numbered host attached to the
// given trunk, or -1 if there is no such trunk; since there are no more
// trunks than hosts, none is empty. Workloads use it for trunk-aware
// placement: putting a segment owner on a chosen trunk decides which
// trunk serves that segment's demand requests.
func (w *World) FirstHostOnTrunk(trunk int) int {
	if trunk < 0 || trunk >= w.cfg.Trunks {
		return -1
	}
	return (trunk*w.cfg.Hosts + w.cfg.Trunks - 1) / w.cfg.Trunks
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
		fn(&Env{w: w, p: p, d: d})
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
// bytes: every driver (its server's task and loop state inline) with its
// directory/frame/queue walk, plus the network's rings and pools. It is
// a deterministic function of simulated behaviour — identical across
// runs, GC timing and sweep worker counts — which is why reports carry
// it instead of runtime heap statistics (those are polluted by whatever
// else shares the process, including parallel sweep workers). Monotone
// structures only: the walk counts peak-shaped capacity (rings, pools,
// tiers never shrink), so it is a resident-footprint measure, not an
// instantaneous live-byte count.
func (w *World) MemFootprint() uint64 {
	var b uint64
	for _, d := range w.drivers {
		b += d.MemFootprint()
	}
	b += w.med.MemFootprint()
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
// backbone, where ethernet.Topology puts every station attached through
// it), like a real analyzer plugged into one segment. On a fabric there
// is no promiscuous mode: the tap sees only broadcast fan-out copies
// addressed to it, never host-to-host unicasts.
func (w *World) AttachTap(max int) *trace.Log { return trace.Tap(w.k, w.med, max) }
