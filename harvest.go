package mether

import (
	"time"

	"mether/internal/stats"
)

// Harvest is the world-level measurement set every report is built
// from: the one place interconnect, bridge, per-trunk and driver
// counters are read after a run. The runners embed it in their reports
// and add only what they measure themselves (CPU splits, op counts).
// All durations are virtual time.
type Harvest struct {
	// Wall is the run's virtual end time, as passed to World.Harvest.
	Wall        time.Duration
	CtxSwitches uint64 // dispatches, all hosts
	// Network load, summed over trunks (see World.NetStats).
	WireBytes      uint64
	Packets        uint64
	NetBytesPerSec float64
	// RingDrops and TxSuppressed count frames lost to full receive rings
	// and sends swallowed by a down NIC; RingHighWater is the deepest any
	// receive ring got (max over hosts, never summed) — the measured
	// fan-in that justifies a configured ring capacity.
	RingDrops     uint64
	TxSuppressed  uint64
	RingHighWater int
	// Fabric counters, zero by construction on Ethernet: unicast copies
	// transmitted on behalf of broadcasts (the sender-paid fan-out cost a
	// shared bus never charges), frames dropped at full per-link transmit
	// queues, and the peak per-link queue occupancy.
	FanoutFrames  uint64
	LinkOverflows uint64
	LinkMaxQueued int
	// Topology counters, zero on a single trunk: bridge forwarded frames,
	// per-port drops, peak store-and-forward occupancy and frames a
	// partitioned bridge drained instead of replaying after its heal.
	BridgeForwarded      uint64
	BridgePortDrops      uint64
	BridgeMaxQueued      int
	BridgePartitionDrops uint64
	// TrunkUtil and TrunkFrames are each trunk's own wire utilization
	// (busy time / Wall) and frame count in trunk order — which trunk
	// saturates is invisible in the summed WireBytes. Nil on one trunk.
	TrunkUtil   []float64
	TrunkFrames []uint64
	// Driver counters, summed over hosts. StaleDrops totals every
	// generation-regressed broadcast; CrossTrunkStale is the subset that
	// bridge queues reordered across trunks (the paper's purge-ordering
	// hazard, measured). The Redundant* and LateDrops counters are zero
	// at the classic k=1: replica answers sent on behalf of owners,
	// replica answers suppressed because the winner's reply landed first,
	// and late/duplicate grants dropped by generation comparison.
	// KernelTime is interrupt-level protocol CPU (kernel-server mode).
	Retries             uint64
	DataFallbacks       uint64
	StaleDrops          uint64
	CrossTrunkStale     uint64
	RedundantServes     uint64
	RedundantSuppressed uint64
	LateDrops           uint64
	KernelTime          time.Duration
	// Fault-plane counters, all zero in healthy worlds: orphaned
	// authorities re-claimed, pre-crash grants refused by the ghost
	// fence, authorities shipped by owner migrations, total NIC-down time
	// and total recovery-to-first-reinstall time.
	OrphanRecoveries uint64
	GhostDrops       uint64
	MigratedPages    uint64
	UnavailNS        time.Duration
	RejoinNS         time.Duration
	// The latency distribution: the drivers' merged fault latencies,
	// unless the runner replaced it with an application-level histogram
	// through SetLatency.
	LatMean  time.Duration
	LatP50   time.Duration
	LatP90   time.Duration
	LatP99   time.Duration
	LatP999  time.Duration
	LatMax   time.Duration
	LatCount uint64
	// Events is the number of simulation-kernel events dispatched — a
	// pure function of config and seed, the engine-throughput
	// denominator. MemBytes is World.MemFootprint after the run. Resumes
	// is World.Resumes: engine cost, printed beside timings, in no report.
	Events   uint64
	MemBytes uint64
	Resumes  uint64
}

// Harvest reads every world-level counter of a run that ended at
// virtual time end. Still-open crash and rejoin windows are folded into
// the drivers' metrics first (core.Driver.SettleFaults; a no-op on
// healthy hosts), so call it once, after the run.
func (w *World) Harvest(end time.Duration) Harvest {
	ns, bs := w.NetStats(), w.BridgeStats()
	h := Harvest{
		Wall:           end,
		WireBytes:      ns.WireBytes,
		Packets:        ns.Frames,
		NetBytesPerSec: stats.BytesPerSec(ns.WireBytes, end),
		RingDrops:      ns.RingDrops,
		TxSuppressed:   ns.TxSuppressed,
		RingHighWater:  ns.RingHighWater,
		FanoutFrames:   ns.FanoutFrames,
		LinkOverflows:  ns.LinkOverflows,
		LinkMaxQueued:  ns.LinkMaxQueued,

		BridgeForwarded:      bs.Forwarded,
		BridgePortDrops:      bs.PortDrops,
		BridgeMaxQueued:      bs.MaxQueued,
		BridgePartitionDrops: bs.PartitionDrops,

		Events:   w.EventsDispatched(),
		MemBytes: w.MemFootprint(),
		Resumes:  w.Resumes(),
	}
	h.TrunkUtil, h.TrunkFrames = w.TrunkUtilization(end)
	var lat stats.Histogram
	for i, d := range w.drivers {
		d.SettleFaults(end)
		m := d.Metrics()
		h.CtxSwitches += w.hosts[i].ContextSwitches()
		h.Retries += m.Retries
		h.DataFallbacks += m.DataFallbacks
		h.StaleDrops += m.StaleDrops
		h.CrossTrunkStale += m.CrossTrunkStale
		h.RedundantServes += m.RedundantServes
		h.RedundantSuppressed += m.RedundantSuppressed
		h.LateDrops += m.LateGrantDrops
		h.KernelTime += m.KernelTime
		h.OrphanRecoveries += m.OrphanRecoveries
		h.GhostDrops += m.GhostDrops
		h.MigratedPages += m.MigratedPages
		h.UnavailNS += m.UnavailNS
		h.RejoinNS += m.RejoinNS
		lat.Merge(&m.FaultLatency)
	}
	h.SetLatency(&lat)
	return h
}

// SetLatency replaces the latency distribution with lat's: runners that
// measure an application-level latency (barrier waits, pipeline
// end-to-end delay) report that instead of driver fault latency.
func (h *Harvest) SetLatency(lat *stats.Histogram) {
	h.LatMean = lat.Mean()
	h.LatP50 = lat.Quantile(0.5)
	h.LatP90 = lat.Quantile(0.9)
	h.LatP99 = lat.Quantile(0.99)
	h.LatP999 = lat.Quantile(0.999)
	h.LatMax = lat.Max()
	h.LatCount = lat.Count()
}
