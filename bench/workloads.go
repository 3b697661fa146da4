package main

import (
	"time"

	"mether/internal/protocols"
	"mether/internal/sweep"
)

// workload is one closed, fixed-work input set: a frozen list of sweep
// cells run serially, one simulation at a time. Why says which layers
// the cells load, and so why the workload is in the benchmark.
type workload struct {
	Name  string
	Why   string
	cells []sweep.Scenario
}

// The cells are literals, not looked up from sweep.Grid on purpose: a
// later re-derivation of grids.go must not change the benchmark's work.
// The counter cells are sweep.FigureScenarios' at target 1024; the
// cluster cells are the kinds and knobs of the cluster and smoke grids at
// a size whose pass takes about a second or less, so that one run holds
// many passes and the working set stays near the cache: a 256-host world
// runs anywhere between 4.3 and 7.5 s from one minute to the next on a
// shared machine, a 96-host one between 0.56 and 0.60 (README, "Sizes").
// The event totals in the comments are for seed 1; a drift in them is a
// change of work, not of speed, and -compare says so.
var workloads = []workload{
	{
		// 3 542 533 events.
		Name: "paper-figures",
		Why:  "Figures 4-9 two-host counter cells: host quantum rotation and sim process hand-off do the work, media idle; also the paper-band accuracy check",
		cells: []sweep.Scenario{
			{Name: "fig4-full-page", Kind: sweep.KindCounter, Protocol: protocols.P1FullPage,
				Target: 1024, Figure: "Figure 4 (full page)"},
			{Name: "fig5-short-page", Kind: sweep.KindCounter, Protocol: protocols.P2ShortPage,
				Target: 1024, Figure: "Figure 5 (short page)"},
			// The paper's "never finished" spinner: the one cell that
			// may hit its cap, here 30 simulated seconds (the grid's 240
			// are eight times the same spinning). It is also the one
			// cell that draws from its seed (0.2 % datagram loss), and
			// which datagrams are lost decides how long the spinners
			// sleep: over seeds 11-20 its event count varies by a third.
			// Like the barrier cell below it keeps seed 1: a seed may
			// change which events happen, not how much work a fixed-work
			// workload is.
			{Name: "fig6-disjoint-ro", Kind: sweep.KindCounter, Protocol: protocols.P3DisjointRO,
				Target: 1024, LossRate: 0.002, Cap: 30 * time.Second, MayDNF: true, Seed: 1},
			{Name: "fig7-hysteresis", Kind: sweep.KindCounter, Protocol: protocols.P3Hysteresis,
				Target: 1024, HysteresisN: 100},
			{Name: "fig8-data-driven", Kind: sweep.KindCounter, Protocol: protocols.P4DataDriven,
				Target: 1024, Figure: "Figure 8 (data driven, one page)"},
			{Name: "fig9-final", Kind: sweep.KindCounter, Protocol: protocols.P5Final,
				Target: 1024, Figure: "Figure 9 (final protocol)"},
		},
	},
	{
		// 1 430 151 events.
		Name: "snoop-eth-96",
		Why:  "96 stationary owners on the shared bus: every update is a short PURGE snooped by 95 receivers, so ethernet broadcast delivery, medium rings and the core receive path carry the run",
		cells: []sweep.Scenario{
			{Name: "bench/stationary/h96", Kind: sweep.KindStationary, Hosts: 96, Iters: 8},
		},
	},
	{
		// 2 662 127 events.
		Name: "snoop-fab-96",
		Why:  "the same cell on the point-to-point fabric: sender-paid fan-out replaces the bus, so a bus-only change must not move it and a medium or core change must",
		cells: []sweep.Scenario{
			{Name: "bench/stationary/h96/fab", Kind: sweep.KindStationary, Hosts: 96, Iters: 8,
				Medium: "fabric"},
		},
	},
	{
		// 273 571 events. The cluster grid's own 64-host rung: a hot
		// page's progress depends on residency against fan-out, and sizes
		// the grid never ran can thrash without finishing (128 hosts at
		// 64 ms does).
		Name: "hotspot-t2-64",
		Why:  "64 writers stealing one page across a bridge: ownership transfers, hold-offs, retry timers armed and cancelled, bridge store-and-forward; the write side of the core code",
		cells: []sweep.Scenario{
			{Name: "cluster/hotspot/h64/t2-star", Kind: sweep.KindHotspot, Hosts: 64, Iters: 8,
				MinResidency: 32 * time.Millisecond, Trunks: 2, OwnerTrunk: 1},
		},
	},
	{
		// 1 804 534 events.
		Name: "barrier-eth-64",
		Why:  "64-host barrier phases: the cost is waiter polling, host sleep/wake and sim process switches, not fan-out, so it separates faster hand-off from faster delivery",
		cells: []sweep.Scenario{
			// The barrier draws each host's per-phase compute time from
			// the seed, and two phases do not average 128 draws out: over
			// seeds 1-10 the event total varies by a factor of two. That
			// is a different amount of work per seed, not a different
			// input of the same size, so the cell keeps seed 1.
			{Name: "cluster/barrier/h64", Kind: sweep.KindBarrier, Hosts: 64, Phases: 2,
				HysteresisN: 16 * 64, Seed: 1},
		},
	},
	{
		// 757 046 events.
		Name: "windowed-1024",
		Why:  "1024-host warm windowed lazy world: the only workload where world construction, the sharded directory and the lazy receive path do real work and memory is the headline",
		cells: []sweep.Scenario{
			{Name: "bench/stationary-h1024-windowed", Kind: sweep.KindStationary, Hosts: 1024, Iters: 1,
				WarmStart: true, Windowed: true, Lazy: true, Stagger: 200 * time.Microsecond,
				RingSlots: 64, RetryTimeout: 500 * time.Millisecond},
			// At Iters 1 no host samples its neighbour, so the big cell
			// takes no page fault at all and the workload's fault latency
			// would be 0 of 0. Its 128-host twin runs the same windowed
			// lazy configuration through one forced sample per host
			// (Iters 4), which puts the lazy path's demand faults under
			// the latency metrics for a fraction of the big cell's time.
			{Name: "bench/stationary-h128-windowed", Kind: sweep.KindStationary, Hosts: 128, Iters: 4,
				WarmStart: true, Windowed: true, Lazy: true, Stagger: 200 * time.Microsecond,
				RingSlots: 64, RetryTimeout: 500 * time.Millisecond},
		},
	},
}

// smallHosts, smallTarget and smallCap shrink every cell under -scale
// small, which exists for tests: the whole harness in seconds. Numbers
// taken at it mean nothing.
const (
	smallHosts  = 16
	smallTarget = 64
	smallCap    = 2 * time.Second
)

// scenarios returns the workload's cells for one seed (cells that pin
// their own seed keep it), shrunk when small.
func (w workload) scenarios(seed int64, small bool) []sweep.Scenario {
	out := make([]sweep.Scenario, len(w.cells))
	for i, s := range w.cells {
		if s.Seed == 0 {
			s.Seed = seed
		}
		if small {
			s = shrink(s)
		}
		out[i] = s
	}
	return out
}

// shrink cuts one cell to test size; knobs the grids derive from the
// host count follow it by the grids' formulas.
func shrink(s sweep.Scenario) sweep.Scenario {
	if s.Kind == sweep.KindCounter {
		s.Target = smallTarget
		if s.MayDNF {
			s.Cap = smallCap
		}
		return s
	}
	if s.Hosts > smallHosts {
		s.Hosts = smallHosts
	}
	if s.HysteresisN > 0 {
		s.HysteresisN = 16 * s.Hosts
	}
	if s.MinResidency > 0 {
		s.MinResidency = 10 * time.Millisecond
	}
	return s
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
