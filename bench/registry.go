package main

// The registry is the single list of what the benchmark measures.
// BENCHMARK.json repeats the names, units, directions and bounds (the
// contract file allows nothing more); a test holds the two in step.

// What the driver runs, for driverRunSeconds a run. Sixteen seconds is
// several of the slow stretches a shared machine goes through, so most
// runs see the machine at its own speed at least once.
var driverCommand = []string{"sh", "bench/run.sh"}

const driverRunSeconds = 16

// e2eMetric is one end-to-end metric, reported once per workload.
// Host metrics are real machine time or memory; sim metrics are virtual
// time and repeat exactly for a fixed seed.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before -compare calls it regressed.
	Bound float64
	Doc   string
}

// exact is the bound of a metric that repeats bit for bit: any worsening
// at all is a change of behaviour. (The contract file wants a share of
// the parent's median, so it is the smallest share worth writing down
// rather than zero.)
const exact = 1e-6

// The three timings carry the widest bound the contract allows, not the
// 10 % the defining issue asked for: the contract wants every spread
// below a third of its bound, and on the reference machine, whose own
// speed moves by a sixth from one minute to the next, ten runs of the
// same code spread 2 to 14 % (README, "Observed spread"). A claimed gain
// has to beat the protocol in the README, not this bound.
var e2eMetrics = []e2eMetric{
	{"wall_s", "s", "lower", 0.25, "host: one serial pass over the workload's cells through Scenario.Run, world build to result; each cell's fastest pass"},
	{"events_per_sec", "1/s", "higher", 0.25, "host: events_total / wall_s"},
	{"setup_s", "s", "lower", 0.25, "host: build and shut down the workload's worlds without running them; the fastest batch"},
	{"peak_rss_mb", "MB", "lower", 0.10, "host: VmHWM of the process after its first pass over the workload"},
	{"allocs_per_event", "count", "lower", 0.05, "host: heap allocations over the timed pass / events_total"},
	{"alloc_bytes_per_event", "B", "lower", 0.05, "host: heap bytes allocated over the timed pass / events_total"},
	{"sim_fault_mean_ms", "sim_ms", "lower", exact, "sim: the paper's latency, count-weighted mean of per-cell lat_mean_ns"},
	{"sim_fault_p99_ms", "sim_ms", "lower", exact, "sim: the largest per-cell lat_p99_ns"},
	{"sim_host_us_per_op", "sim_us", "lower", exact, "sim: the paper's host load, (user+sys+server CPU) / ops"},
	{"sim_wire_bytes_per_op", "B", "lower", exact, "sim: the paper's network load, wire bytes / ops"},
	{"sim_ops_per_sec", "1/sim_s", "higher", exact, "sim: ops / virtual wall time"},
}

// move names one end-to-end cell a layer metric is predicted to move.
// Every pairing not listed is predicted flat.
type move struct{ Metric, Workload string }

// layerMetric is one per-layer metric, reported by a traced run.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  []move
	Doc    string
}

var allWorkloads = []string{"paper-figures", "snoop-eth-96", "snoop-fab-96", "hotspot-t2-64", "barrier-eth-64", "windowed-1024"}

// on pairs one end-to-end metric with each named workload.
func on(metric string, names ...string) []move {
	out := make([]move, len(names))
	for i, n := range names {
		out[i] = move{metric, n}
	}
	return out
}

var (
	handoff  = on("wall_s", allWorkloads...) // paper-figures and barrier-eth-64 first
	snoopers = on("wall_s", "snoop-eth-96", "snoop-fab-96", "windowed-1024")
	clusters = on("wall_s", "snoop-eth-96", "snoop-fab-96", "hotspot-t2-64", "barrier-eth-64", "windowed-1024")
	// wasted protocol work lengthens the tail and adds wire bytes
	hotPage = append(on("sim_fault_p99_ms", "hotspot-t2-64"), on("sim_wire_bytes_per_op", "hotspot-t2-64")...)
)

// figureCells are the paper-figures cells that get their own rows (the
// other workloads are one cell each, so the workload row is the cell row).
var figureCells = []string{"fig4-full-page", "fig5-short-page", "fig6-disjoint-ro", "fig7-hysteresis", "fig8-data-driven", "fig9-final"}

// profileBuckets are the layers a CPU sample's leaf function folds into.
var profileBuckets = []string{"sim", "host", "medium", "ethernet", "fabric", "proto", "core", "vm", "app", "runtime_sched", "runtime_gc", "runtime_other", "other"}

var layerMetrics = buildLayerMetrics()

// perWorkload reports whether a per-layer metric describes the traced
// workload (its profile fold, GC and tracing cost) rather than a layer
// in isolation; the others are measured once per invocation.
func perWorkload(metric string) bool {
	for _, m := range layerMetrics {
		if m.Name == metric {
			return m.Layer == "profile" || m.Layer == "runtime" || m.Layer == "bench"
		}
	}
	return false
}

func buildLayerMetrics() []layerMetric {
	ms := []layerMetric{
		{"sim.dispatch_ns", "ns", "lower", "sim", on("events_per_sec", allWorkloads...), "one timed event through the wheel"},
		{"sim.immediate_ns", "ns", "lower", "sim", on("events_per_sec", allWorkloads...), "one After(0) event through the FIFO"},
		{"sim.dispatch_deep_ns", "ns", "lower", "sim", on("wall_s", "windowed-1024"), "dispatch with 4096 timers pending"},
		{"sim.cancel_ns", "ns", "lower", "sim", on("wall_s", "hotspot-t2-64"), "arm and cancel one retry timer"},
		{"sim.coalesced_ns", "ns", "lower", "sim", on("wall_s", "snoop-eth-96"), "per callback of a 256-wide AfterCoalesced batch"},
		{"sim.proc_switch_ns", "ns", "lower", "sim", handoff, "Proc.Sleep round trip: kernel to process goroutine and back"},
		{"sim.park_wake_ns", "ns", "lower", "sim", handoff, "Park plus the Wake that resumes it"},

		{"host.sleep_wake_ns", "ns", "lower", "host", on("wall_s", "barrier-eth-64", "paper-figures"), "SleepOn, Wakeup, dispatch with wake boost"},
		{"host.quantum_rotation_ns", "ns", "lower", "host", on("wall_s", "paper-figures"), "two spinners alternating whole quanta (fig6)"},

		{"medium.pool_cycle_ns", "ns", "lower", "medium", snoopers, "Pool.Acquire plus Release"},
		{"medium.ring_cycle_ns", "ns", "lower", "medium", snoopers, "Ring.Push plus Pop"},

		{"ethernet.unicast_ns", "ns", "lower", "ethernet", on("wall_s", "paper-figures"), "one 48 B unicast, send to release"},
		{"ethernet.bcast_short_ns_per_rx", "ns", "lower", "ethernet", on("wall_s", "snoop-eth-96"), "48 B broadcast to 256 stations, per receiver"},
		{"ethernet.bcast_full_ns_per_rx", "ns", "lower", "ethernet", on("wall_s", "snoop-eth-96"), "8208 B broadcast to 256 stations, per receiver"},
		{"ethernet.bridge_fwd_ns", "ns", "lower", "ethernet", on("wall_s", "hotspot-t2-64"), "one broadcast stored and forwarded across a bridge"},
		{"ethernet.ring_drop_share", "share", "lower", "ethernet", on("sim_fault_p99_ms", "snoop-eth-96"), "drops / frames offered to a never-drained 32-slot ring"},

		{"fabric.unicast_ns", "ns", "lower", "fabric", on("wall_s", "snoop-fab-96"), "one 48 B unicast over one link"},
		{"fabric.fanout_ns_per_copy", "ns", "lower", "fabric", on("wall_s", "snoop-fab-96"), "48 B broadcast to 256 ports, per copy"},
		{"fabric.link_overflow_share", "share", "lower", "fabric", on("sim_fault_p99_ms", "snoop-fab-96"), "overflows / frames offered to one link back to back"},

		{"proto.encode_short_ns", "ns", "lower", "proto", clusters, "AppendEncode of a short-page data packet"},
		{"proto.encode_full_ns", "ns", "lower", "proto", clusters, "AppendEncode of a full-page data packet"},
		{"proto.decode_short_ns", "ns", "lower", "proto", clusters, "Decode of a short-page data packet"},
		{"proto.decode_full_ns", "ns", "lower", "proto", clusters, "Decode of a full-page data packet"},

		{"core.fault_rt_ns", "ns", "lower", "core", on("wall_s", "hotspot-t2-64", "paper-figures"), "host ns per demand read fault, two hosts"},
		{"core.own_transfer_ns", "ns", "lower", "core", on("wall_s", "hotspot-t2-64"), "host ns per store of two writers taking turns on one page, each store moving ownership"},
		{"core.purge_bcast_ns_per_rx", "ns", "lower", "core", on("wall_s", "snoop-eth-96", "snoop-fab-96"), "short PURGE into a warm 256-host world, per receiver"},
		{"core.seed_replica_ns_per_page", "ns", "lower", "core", on("setup_s", "windowed-1024"), "SeedReplica per page"},
		{"core.retry_share", "share", "lower", "core", hotPage, "Retries / RequestsSent in a 16-host hotspot"},
		{"core.stale_drop_share", "share", "lower", "core", hotPage, "StaleDrops / (Refreshes+StaleDrops) in a 16-host hotspot"},

		{"world.build_ns_per_host_256", "ns", "lower", "mether", on("setup_s", "snoop-eth-96", "snoop-fab-96", "hotspot-t2-64"), "NewWorld to Shutdown at 256 hosts, per host"},
		{"world.build_ns_per_host_4096", "ns", "lower", "mether", on("setup_s", "windowed-1024"), "NewWorld to Shutdown at 4096 hosts, per host"},
		{"world.mem_bytes_per_host_4096", "B", "lower", "mether", on("peak_rss_mb", "windowed-1024"), "MemFootprint of a warm 4096-host world, per host (exact)"},

		{"sweep.grid_build_ns", "ns", "lower", "sweep", nil, "sweep.Grid(\"cluster\")"},
		{"sweep.report_json_ns", "ns", "lower", "sweep", nil, "Report.JSON of a 64-cell report"},
		{"sweep.compare_ns", "ns", "lower", "sweep", nil, "Compare of two 64-cell reports"},
		{"sweep.runner_speedup_w2", "ratio", "higher", "sweep", nil, "two workers against one on sixteen 16-host cells (noisy)"},

		{"stats.observe_ns", "ns", "lower", "stats", nil, "Histogram.Observe"},
		{"stats.quantile_ns", "ns", "lower", "stats", nil, "Histogram.Quantile"},
		{"fault.parse_ns", "ns", "lower", "fault", nil, "fault.Parse of a four-event schedule"},
		{"trace.tap_ns_per_frame", "ns", "lower", "trace", nil, "extra host ns per frame with trace.Tap attached"},
	}
	for _, c := range figureCells {
		ms = append(ms, layerMetric{"cell_wall_ms." + c, "ms", "lower", "protocols", on("wall_s", "paper-figures"), "host time of one paper-figures cell"})
	}
	for _, c := range figureCells {
		ms = append(ms, layerMetric{"cell_ns_per_event." + c, "ns", "lower", "protocols", on("events_per_sec", "paper-figures"), "host ns per event of one paper-figures cell"})
	}
	for _, b := range profileBuckets {
		ms = append(ms, layerMetric{"trace.self_share." + b, "share", "lower", "profile", nil, "share of the traced pass's CPU samples whose leaf function is in this bucket"})
	}
	return append(ms,
		layerMetric{"runtime.gc_cpu_share", "share", "lower", "runtime", on("wall_s", "windowed-1024"), "the runtime's estimate of GC CPU seconds over the traced passes / their length"},
		layerMetric{"runtime.num_gc", "count", "lower", "runtime", on("wall_s", "windowed-1024"), "GC cycles per traced pass"},
		layerMetric{"trace_overhead_pct", "%", "lower", "bench", nil, "traced pass against the untraced pass of the same process"},
	)
}
