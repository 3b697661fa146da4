// Package sweep is the reproduction's scenario-sweep engine: it defines
// grids of independent simulation scenarios (protocol × page mode ×
// fault semantics × server placement × loss rate × workload mix × host
// count), runs each scenario's World on its own goroutine under a
// bounded worker pool, and aggregates the results into deterministic
// reports.
//
// Determinism is the load-bearing property: every scenario is a sealed
// deterministic simulation keyed by its seed, and a Report contains only
// virtual-time measurements, so the same grid and seed produce
// byte-identical JSON/CSV output whether the sweep runs on one core or
// all of them. Real-time measurements (how long the sweep itself took,
// the parallel speedup) are returned separately in Timing and never
// enter the Report.
package sweep

import (
	"fmt"
	"time"

	"mether/internal/analysis"
	"mether/internal/ethernet"
	"mether/internal/fault"
	"mether/internal/protocols"
	"mether/internal/sim"
	"mether/internal/stats"
	"mether/internal/workload"
)

// Kind discriminates what a scenario runs.
type Kind string

// Scenario kinds.
const (
	// KindCounter is the paper's two-host synchronization counter
	// (Figures 4-9); Protocol selects page mode and fault semantics.
	KindCounter Kind = "counter"
	// KindFanout is the one-writer/N-reader broadcast-scaling run.
	KindFanout Kind = "fanout"
	// KindPipe is the single-pipe message-mix throughput run.
	KindPipe Kind = "pipe"
	// KindHotspot is N hosts contending for one shared page.
	KindHotspot Kind = "hotspot"
	// KindBarrier is the N-host bulk-synchronous barrier-phase run.
	KindBarrier Kind = "barrier"
	// KindPipeline is the producer-consumer pipeline over Mether pipes.
	KindPipeline Kind = "pipeline"
	// KindStationary is the P5-style stationary-owner counter at cluster
	// scale: every host updates its own page and passively samples a
	// neighbour.
	KindStationary Kind = "stationary"
)

// kindSpec is what the sweep knows of one kind: the workload a scenario
// of it runs, the op count its cost is estimated by (see estCost), and
// the form of its report row.
type kindSpec struct {
	workload func(Scenario, workload.Options) (workload.Workload, error)
	ops      func(Scenario) int64
	row      rowForm
}

// kinds is the one list of scenario kinds.
var kinds = map[Kind]kindSpec{
	KindCounter: {func(s Scenario, o workload.Options) (workload.Workload, error) {
		return protocols.Counter(s.counterConfig(o))
	}, func(s Scenario) int64 {
		if s.Target == 0 {
			return 1024
		}
		return int64(s.Target)
	}, counterRow},
	KindFanout: {func(s Scenario, o workload.Options) (workload.Workload, error) {
		return protocols.Fanout(protocols.FanoutConfig{Mode: s.FanoutMode, Readers: s.Readers, Updates: s.Updates, Options: o})
	}, func(s Scenario) int64 { return int64(s.Updates) * int64(s.Readers) }, counterRow},
	KindPipe: {func(s Scenario, o workload.Options) (workload.Workload, error) {
		return workload.Pipe(workload.PipeConfig{Dist: s.Dist, Messages: s.Messages, Options: o})
	}, func(s Scenario) int64 { return int64(s.Messages) }, clusterRow},
	KindHotspot: {func(s Scenario, o workload.Options) (workload.Workload, error) {
		return workload.Hotspot(workload.HotspotConfig{Hosts: s.Hosts, Iters: s.Iters, ShortPage: s.ShortPage,
			Writers: s.Writers, OwnerTrunk: s.OwnerTrunk, Options: o})
	}, func(s Scenario) int64 { return int64(s.Iters) * s.hosts() }, clusterRow},
	// HysteresisN doubles as the barrier waiter's purge hysteresis: large
	// clusters need a high value so waiters ride the snoopy refreshes
	// instead of flooding the wire with demand fetches.
	KindBarrier: {func(s Scenario, o workload.Options) (workload.Workload, error) {
		return workload.Barrier(workload.BarrierConfig{Hosts: s.Hosts, Phases: s.Phases,
			HysteresisPurge: s.HysteresisN, CheckEvery: s.CheckEvery, Options: o})
	}, func(s Scenario) int64 { return int64(s.Phases) * s.hosts() }, clusterRow},
	KindPipeline: {func(s Scenario, o workload.Options) (workload.Workload, error) {
		return workload.Pipeline(workload.PipelineConfig{Stages: s.Stages, Messages: s.Messages, Size: s.MsgSize, Options: o})
	}, func(s Scenario) int64 { return int64(s.Messages) * int64(s.Stages) }, clusterRow},
	// Linear in wire bytes, but every update broadcast is still ingested
	// by all hosts, so simulation work is quadratic in hosts too.
	KindStationary: {func(s Scenario, o workload.Options) (workload.Workload, error) {
		return workload.Stationary(workload.StationaryConfig{Hosts: s.Hosts, Iters: s.Iters,
			WindowedAttach: s.Windowed, StaggerStart: s.Stagger, Options: o})
	}, func(s Scenario) int64 { return int64(s.Iters) * s.hosts() }, clusterRow},
}

// Scenario is one point of a sweep grid: a named, fully parameterized,
// independently runnable simulation. Zero-valued fields take the
// underlying runner's defaults.
type Scenario struct {
	Name string
	Kind Kind
	Seed int64
	// Cap bounds the simulated run (scenario-kind default when zero).
	Cap time.Duration

	// Counter parameters (KindCounter).
	Protocol    protocols.Protocol
	Target      uint32
	HysteresisN int
	SleepHyst   time.Duration
	// Figure names an analysis figure whose paper bands the result is
	// checked against ("" = no check). Checks only apply at the paper's
	// full scale (Target 1024).
	Figure string

	// Fanout parameters (KindFanout).
	FanoutMode protocols.FanoutMode
	Readers    int
	Updates    int

	// Pipe-mix parameters (KindPipe).
	Dist     workload.SizeDist
	Messages int

	// Hotspot / barrier / pipeline / stationary parameters.
	Hosts     int
	Iters     int
	ShortPage bool
	Phases    int
	Stages    int
	MsgSize   int
	// MinResidency overrides the driver's anti-thrash holdoff (zero =
	// driver default); hotspot cluster cells scale it with host count.
	MinResidency time.Duration
	// RetryTimeout overrides the driver's demand-retransmit interval
	// (zero = driver default); the 1024-host tier scales it with host
	// count so redundant request re-broadcasts stay bounded.
	RetryTimeout time.Duration
	// CheckEvery overrides the barrier waiter's spin-check interval
	// (zero = workload default); the 1024-host tier scales it with host
	// count so waiters poll no faster than the broadcast backlog drains.
	CheckEvery time.Duration
	// Writers bounds the hotspot's active writer set (zero = all hosts);
	// the 1024-host tier bounds it so the cell stays tractable.
	Writers int
	// WarmStart seeds resident replicas before the run (1024-host tier:
	// cold attach is an O(hosts³) request storm).
	WarmStart bool
	// The windowed-tier knobs (the 4096/10000-host cells set all four,
	// classic cells leave them zero). Two are the stationary client's
	// own: Windowed maps only each host's working set instead of the
	// whole segment, and Stagger offsets host i's start by i×Stagger so
	// first purges don't collide at t=0. Two are shared axes: Lazy
	// enables the driver's memory-lazy receive path
	// (core.Config.LazyReplicas), and RingSlots replaces the uniform rx
	// ring with a small fan-in-derived constant per NIC.
	Windowed  bool
	Stagger   time.Duration
	Lazy      bool
	RingSlots int

	// The shared axes. Scenario.cluster carries every field below except
	// OwnerTrunk and MayDNF — and Seed, Cap, MinResidency, RetryTimeout,
	// WarmStart, Lazy and RingSlots above — into the workload.Options
	// that every kind builds its world from, so each applies to every
	// kind.
	LossRate     float64
	KernelServer bool
	// Topology axes. Trunks partitions the hosts across bridged Ethernet
	// trunks (0/1 = the classic single bus; more trunks than hosts fails
	// the cell); TrunkShape is "star" (default) or "linear";
	// OwnerTrunk places the hotspot segment owner's trunk (hotspot
	// only — the other kinds' page layouts are fixed by the workload);
	// PortLoss is the per-port bridge forwarding loss probability.
	// Other bridge parameters stay at the model defaults (1 ms
	// store-and-forward).
	Trunks     int
	TrunkShape string
	OwnerTrunk int
	PortLoss   float64
	// MayDNF marks cells whose failure to finish is part of the
	// measurement (the paper's "Never finished" rows: Figure 6, the
	// hysteresis extremes, lossy passive protocols). methersweep treats
	// a DNF on any cell *not* so marked as a gate failure.
	MayDNF bool
	// RxRing overrides the per-NIC receive ring capacity (zero = model
	// default, 32 frames). A 1024-host broadcast burst arrives at wire
	// speed but drains at server speed; the era-accurate 32-slot ring
	// drops almost all of it, so the large tier scales the ring with
	// cluster fan-in.
	RxRing int
	// Redundancy is the redundant-fetch fan-out k: read faults name the
	// k-1 nearest replicas as extra targets and the first response wins.
	// 0/1 is the classic owner-only protocol and leaves reports
	// byte-identical.
	Redundancy int
	// BacklogUp / BacklogDown model asymmetric background traffic on
	// every bridge: extra forwarding delay toward the higher- and
	// lower-numbered trunk respectively. Zero on classic cells.
	BacklogUp   time.Duration
	BacklogDown time.Duration
	// Faults is a deterministic fault schedule in fault.Parse syntax
	// ("crash@150ms:h3;partition@200ms:b0;..."), kept as a string so a
	// Scenario stays pure data. Empty means a healthy world — provably
	// identical to a schedule-free run. Every kind gates on the end-of-run
	// orphan count (see Result.Orphaned).
	Faults string
	// Medium selects the interconnect backend: "" / "ethernet" is the
	// paper's shared broadcast bus, "fabric" the RDMA-like point-to-point
	// medium where a broadcast is a sender-paid unicast fan-out. Fabric
	// cells must not combine with Trunks > 1 (no broadcast domains to
	// bridge; the cell fails with an error) or bridge-dependent axes
	// (backlogs, partitions).
	Medium string
	// ClaimRetries arms orphaned-ownership recovery: after this many
	// consecutive unanswered demand retries a requester claims the page
	// itself. Zero disables claiming; partition cells must leave it zero
	// (a claim across a partition mints a second owner).
	ClaimRetries int
}

// Result is one scenario's aggregated measurements. Every field is a
// pure function of the scenario definition and seed: durations are
// virtual nanoseconds, never wall time. Fields irrelevant to a
// scenario's kind are zero.
//
// Result is the one declaration of a report's columns: each field is
// one, named by its json tag, in field order. The JSON report encodes
// it as it stands, Report.CSV writes a column per field (the per-trunk
// slices become column pairs at the end of the row) and Compare gates
// every numeric field, so a new field needs no second edit.
type Result struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	Seed int64  `json:"seed"`
	Err  string `json:"err,omitempty"`
	DNF  bool   `json:"dnf,omitempty"`

	WallNS    int64   `json:"wall_ns"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	LossWin   float64 `json:"loss_win,omitempty"`
	// Retries counts demand requests re-sent after a retry timeout,
	// summed over hosts: how often a protocol recovered from a lost
	// reply. Omitted when zero.
	Retries uint64 `json:"retries,omitempty"`

	UserNS      int64  `json:"user_ns"`
	SysNS       int64  `json:"sys_ns"`
	ServerNS    int64  `json:"server_ns"`
	CtxSwitches uint64 `json:"ctx_switches"`

	WireBytes      uint64  `json:"wire_bytes"`
	Packets        uint64  `json:"packets"`
	NetBytesPerSec float64 `json:"net_bytes_per_sec"`

	LatMeanNS int64 `json:"lat_mean_ns"`
	LatP50NS  int64 `json:"lat_p50_ns"`
	LatP90NS  int64 `json:"lat_p90_ns"`
	// LatP99NS / LatP999NS are the tail-latency columns the redundancy
	// axis is measured by: the mean barely moves when a lost reply costs
	// one cell a 250 ms retry, but the p99/p999 jump an order of
	// magnitude.
	LatP99NS  int64  `json:"lat_p99_ns"`
	LatP999NS int64  `json:"lat_p999_ns"`
	LatMaxNS  int64  `json:"lat_max_ns"`
	LatCount  uint64 `json:"lat_count"`

	// Events is the number of simulation-kernel events the scenario
	// dispatched — deterministic like every other field; the
	// denominator of methersweep's -alloc-ceiling gate.
	Events uint64 `json:"events,omitempty"`

	// MemBytes is the world's structural memory footprint (see
	// World.MemFootprint): a deterministic walk of driver directories,
	// frames, queues and NIC rings, not runtime heap statistics.
	// BytesPerHost divides it by the cluster size — the scaling headline
	// the flyweight tiers are measured by. RingHighWater is the deepest
	// any NIC rx ring got (max over hosts), proving configured ring
	// bounds out. All omitted when zero, keeping pre-existing baselines'
	// gated metrics comparable.
	MemBytes      uint64  `json:"mem_bytes,omitempty"`
	BytesPerHost  float64 `json:"bytes_per_host,omitempty"`
	RingHighWater int     `json:"ring_high_water,omitempty"`

	// Topology measurements, all zero (and omitted, keeping single-trunk
	// reports byte-identical to pre-topology baselines) on a single
	// trunk: bridge forwarded/drop/occupancy counters and the
	// cross-trunk staleness hazard (broadcasts reordered by bridge
	// queues so an old copy arrived after a newer one).
	BridgeForwarded uint64 `json:"bridge_forwarded,omitempty"`
	BridgePortDrops uint64 `json:"bridge_port_drops,omitempty"`
	BridgeMaxQueued int    `json:"bridge_max_queued,omitempty"`
	CrossTrunkStale uint64 `json:"cross_trunk_stale,omitempty"`
	// TrunkUtil and TrunkFrames are the per-trunk wire utilization and
	// frame counts in trunk order, so multi-trunk cells show which trunk
	// saturates (the summed wire_bytes cannot). Omitted — keeping
	// single-trunk reports byte-identical — on classic cells.
	TrunkUtil   []float64 `json:"trunk_util,omitempty"`
	TrunkFrames []uint64  `json:"trunk_frames,omitempty"`

	// Fabric measurements, zero (and omitted, keeping Ethernet reports
	// byte-identical to pre-fabric baselines) on the shared bus: the
	// per-destination unicast copies transmitted on behalf of broadcasts
	// (the sender-paid fan-out wire cost), frames dropped at full
	// per-link transmit queues, and the peak per-link queue occupancy.
	FanoutFrames  uint64 `json:"fanout_frames,omitempty"`
	LinkOverflows uint64 `json:"link_overflows,omitempty"`
	LinkMaxQueued int    `json:"link_max_queued,omitempty"`

	// Redundant-fetch counters, zero (and omitted) at the classic k=1:
	// replica answers sent on behalf of owners, replica answers
	// suppressed because the winner's reply landed first, and
	// late/duplicate grants dropped by explicit generation comparison.
	RedundantServes     uint64 `json:"redundant_serves,omitempty"`
	RedundantSuppressed uint64 `json:"redundant_suppressed,omitempty"`
	LateDrops           uint64 `json:"late_drops,omitempty"`

	// Fault-plane measurements, zero (and omitted, keeping healthy-world
	// reports byte-identical) without a fault schedule: authorities
	// re-claimed after a crash orphaned them, pre-crash grants refused by
	// the recovered host's ghost fence, authorities shipped by owner
	// migrations, total host-down time, total recovery-to-first-
	// reinstall time, frames a partitioned bridge dropped, and pages
	// still ownerless at end of run (a gate: fault cells must end with
	// zero).
	OrphanRecoveries uint64 `json:"orphan_recoveries,omitempty"`
	GhostDrops       uint64 `json:"ghost_drops,omitempty"`
	MigratedPages    uint64 `json:"migrated_pages,omitempty"`
	UnavailNS        int64  `json:"unavail_ns,omitempty"`
	RejoinNS         int64  `json:"rejoin_ns,omitempty"`
	PartitionDrops   uint64 `json:"partition_drops,omitempty"`
	Orphaned         int    `json:"orphaned,omitempty"`

	// Deviations lists paper-band violations when the scenario carries a
	// Figure reference; empty means all checked cells agree.
	Deviations []string `json:"deviations,omitempty"`
}

// estCost is a deterministic work estimate — hosts × the kind's op
// count, from the kind table — used only to order scenarios
// largest-first before they are handed to the worker pool, so a
// long-pole cell starts early instead of serializing the tail of the
// sweep. Broadcast-bound kinds count an op per host, so they grow
// quadratically in host count: every op is a broadcast that every host
// must ingest. The estimate never influences results — reports are
// indexed by grid position, not completion order.
func (s Scenario) estCost() int64 {
	work := int64(1)
	if k, ok := kinds[s.Kind]; ok {
		work = max(k.ops(s), 1)
	}
	return s.hosts() * work
}

// hosts is the scenario's host count as estCost reads it: at least two.
func (s Scenario) hosts() int64 { return max(int64(s.Hosts), 2) }

// cluster is the one place a Scenario's shared axes become the
// workload.Options every kind's runner builds its world from; a new
// axis is a Scenario field plus one line here. It fails on an unknown
// TrunkShape or a malformed Faults spec.
func (s Scenario) cluster() (workload.Options, error) {
	shape, err := ethernet.ShapeByName(s.TrunkShape)
	if err != nil {
		return workload.Options{}, err
	}
	faults, err := fault.Parse(s.Faults)
	if err != nil {
		return workload.Options{}, err
	}
	return workload.Options{
		Seed: s.Seed, Cap: s.Cap,
		Medium: s.Medium, LossRate: s.LossRate, RxRing: s.RxRing, RingSlots: s.RingSlots,
		Trunks: s.Trunks, TrunkShape: shape, PortLoss: s.PortLoss,
		BacklogUp: s.BacklogUp, BacklogDown: s.BacklogDown,
		KernelServer: s.KernelServer, Redundancy: s.Redundancy,
		MinResidency: s.MinResidency, RetryTimeout: s.RetryTimeout,
		ClaimRetries: s.ClaimRetries, LazyReplicas: s.Lazy,
		WarmStart: s.WarmStart, Faults: faults,
	}, nil
}

// counterConfig is the protocols.Config a KindCounter scenario runs,
// its shared axes already resolved into opts.
func (s Scenario) counterConfig(opts workload.Options) protocols.Config {
	return protocols.Config{
		Protocol:        s.Protocol,
		Target:          s.Target,
		HysteresisN:     s.HysteresisN,
		SleepHysteresis: s.SleepHyst,
		Options:         opts,
	}
}

// Run executes one scenario to completion and aggregates its Result.
// Errors — a world that cannot be built included — are folded into
// Result.Err so one failing cell never aborts a whole sweep.
func (s Scenario) Run() Result {
	res, _ := s.run()
	return res
}

// run is Run plus the world's kernel counters (Harvest.Engine): they
// measure the engine, as real time does, so the Runner sums them into
// Timing and no Result field, hence no report, carries them.
func (s Scenario) run() (Result, sim.Counters) {
	res := Result{Name: s.Name, Kind: s.Kind, Seed: s.Seed}
	k, ok := kinds[s.Kind]
	if !ok {
		return res.failed(fmt.Errorf("sweep: unknown scenario kind %q", s.Kind)), sim.Counters{}
	}
	opts, err := s.cluster()
	var wl workload.Workload
	if err == nil {
		wl, err = k.workload(s, opts)
	}
	var rep workload.Report
	if err == nil {
		rep, err = opts.Run(wl)
	}
	if err != nil {
		return res.failed(err), sim.Counters{}
	}
	res.fill(rep, s, k.row)
	return res, rep.Engine
}

// failed is the result of a cell that could not run: identity plus Err.
func (r Result) failed(err error) Result {
	r.Err = err.Error()
	return r
}

// rowForm is the form of a kind's report row.
type rowForm int

const (
	// clusterRow: the CPU split summed over every host and the per-host
	// memory headline.
	clusterRow rowForm = iota
	// counterRow: host 0's CPU, as the paper's figures report it (the
	// fanout's host 0 is its writer), and the paper-band check of a
	// full-scale (Target 1024) figure cell.
	counterRow
)

// fill copies a run's report into the result in the row form of the
// scenario's kind — the one place a measured number becomes a report
// column's value. Either form carries the end-of-run orphan count,
// which is only measured (so only ever nonzero) on a faulted cell. A
// nonzero count becomes a deviation: a fault schedule must leave every
// page with a live owner, so an orphan surviving to the end is a
// recovery failure, gated exactly like a paper-band violation.
func (r *Result) fill(rep workload.Report, s Scenario, form rowForm) {
	r.DNF = rep.DNF
	r.Ops = rep.Ops
	cpu := rep.All
	if form == counterRow {
		cpu = rep.Host0
	}
	r.UserNS = int64(cpu.User)
	r.SysNS = int64(cpu.Sys)
	r.ServerNS = int64(cpu.Server)
	r.LossWin = rep.LossWin()
	h := rep.Harvest
	r.WallNS = int64(h.Wall)
	r.CtxSwitches = h.CtxSwitches
	r.WireBytes = h.Net.WireBytes
	r.Packets = h.Net.Frames
	r.NetBytesPerSec = h.NetBytesPerSec
	r.LatMeanNS = int64(h.LatMean)
	r.LatP50NS = int64(h.LatP50)
	r.LatP90NS = int64(h.LatP90)
	r.LatP99NS = int64(h.LatP99)
	r.LatP999NS = int64(h.LatP999)
	r.LatMaxNS = int64(h.LatMax)
	r.LatCount = h.LatCount
	r.Events = h.Events
	r.MemBytes = h.MemBytes
	r.RingHighWater = h.Net.RingHighWater
	r.FanoutFrames = h.Net.FanoutFrames
	r.LinkOverflows = h.Net.LinkOverflows
	r.LinkMaxQueued = h.Net.LinkMaxQueued
	r.BridgeForwarded = h.Bridge.Forwarded
	r.BridgePortDrops = h.Bridge.PortDrops
	r.BridgeMaxQueued = h.Bridge.MaxQueued
	r.PartitionDrops = h.Bridge.PartitionDrops
	r.TrunkUtil = h.TrunkUtil
	r.TrunkFrames = h.TrunkFrames
	d := &h.Driver
	r.Retries = d.Retries
	r.CrossTrunkStale = d.CrossTrunkStale
	r.RedundantServes = d.RedundantServes
	r.RedundantSuppressed = d.RedundantSuppressed
	r.LateDrops = d.LateGrantDrops
	r.OrphanRecoveries = d.OrphanRecoveries
	r.GhostDrops = d.GhostDrops
	r.MigratedPages = d.MigratedPages
	r.UnavailNS = int64(d.UnavailNS)
	r.RejoinNS = int64(d.RejoinNS)
	r.OpsPerSec = stats.Rate(r.Ops, h.Wall)
	if form == counterRow && s.Figure != "" && s.Target == 1024 {
		r.Deviations = bandCheck(s.Figure, rep)
	}
	if h.MemBytes > 0 {
		r.BytesPerHost = float64(h.MemBytes) / float64(rep.Hosts)
	}
	r.Orphaned = rep.Orphaned
	if rep.Orphaned > 0 {
		r.Deviations = append(r.Deviations,
			fmt.Sprintf("%d page(s) still orphaned at end of run", rep.Orphaned))
	}
}

// bandCheck compares a full-scale counter report against the named
// paper figure's agreement bands.
func bandCheck(figure string, r workload.Report) []string {
	for _, f := range analysis.Figures() {
		if f.Name != figure {
			continue
		}
		var out []string
		for _, d := range analysis.CheckReport(f, r) {
			out = append(out, d.String())
		}
		return out
	}
	return []string{fmt.Sprintf("unknown figure %q", figure)}
}
