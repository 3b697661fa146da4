package mether

import (
	"time"

	"mether/internal/core"
	"mether/internal/ethernet"
	"mether/internal/medium"
	"mether/internal/sim"
	"mether/internal/stats"
)

// Harvest is the world-level measurement set every report is built
// from: the one place interconnect, bridge, per-trunk and driver
// counters are read after a run. Each layer's counters arrive in that
// layer's own struct, so a counter added to one reaches every report
// without a copy here. The runners embed it in their reports and add
// only what they measure themselves (CPU splits, op counts). All
// durations are virtual time.
type Harvest struct {
	// Wall is the run's virtual end time, as passed to World.Harvest.
	Wall        time.Duration
	CtxSwitches uint64 // dispatches, all hosts
	// Net is the network load summed over trunks (World.NetStats);
	// NetBytesPerSec is its wire bytes over Wall.
	Net            medium.Stats
	NetBytesPerSec float64
	// Bridge is the bridges' counters (World.BridgeStats), zero on a
	// single trunk.
	Bridge ethernet.BridgeStats
	// Driver is every driver's metrics summed (core.Metrics.Add), still
	// open crash and rejoin windows settled.
	Driver core.Metrics
	// TrunkUtil and TrunkFrames are each trunk's own wire utilization
	// (busy time / Wall) and frame count in trunk order — which trunk
	// saturates is invisible in the summed Net. Nil on one trunk.
	TrunkUtil   []float64
	TrunkFrames []uint64
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
	// denominator. MemBytes is World.MemFootprint after the run. Engine
	// is World.Engine: engine cost, printed beside timings, in no report.
	Events   uint64
	MemBytes uint64
	Engine   sim.Counters
}

// Harvest reads every world-level counter of a run that ended at
// virtual time end. Still-open crash and rejoin windows are folded into
// the drivers' metrics first (core.Driver.SettleFaults; a no-op on
// healthy hosts), so call it once, after the run.
func (w *World) Harvest(end time.Duration) Harvest {
	h := Harvest{
		Wall:     end,
		Net:      w.NetStats(),
		Bridge:   w.BridgeStats(),
		Events:   w.EventsDispatched(),
		MemBytes: w.MemFootprint(),
		Engine:   w.Engine(),
	}
	h.NetBytesPerSec = stats.BytesPerSec(h.Net.WireBytes, end)
	h.TrunkUtil, h.TrunkFrames = w.TrunkUtilization(end)
	for i, d := range w.drivers {
		d.SettleFaults(end)
		h.CtxSwitches += w.hosts[i].ContextSwitches()
		h.Driver.Add(d.Metrics())
	}
	h.SetLatency(&h.Driver.FaultLatency)
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
