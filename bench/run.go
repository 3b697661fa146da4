package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mether"
	"mether/internal/core"
	"mether/internal/protocols"
	"mether/internal/sweep"
)

// pass is one serial run of a workload's cells, timed from outside.
type pass struct {
	cells    []sweep.Result
	cellWall []time.Duration
	wall     time.Duration // sum of cellWall: world build to result, per cell
	allocs   uint64        // heap objects allocated inside the timed cells
	bytes    uint64
	events   uint64
	digest   string // of the cells' Report.JSON: every sim value, no host time
}

// runPass runs every cell once. Allocation counters are read right
// around each Scenario.Run, so the harness's own report rendering and
// digest are outside both the timing and the allocation count.
func runPass(name string, scs []sweep.Scenario, tr *tracer) (pass, error) {
	p := pass{cells: make([]sweep.Result, len(scs)), cellWall: make([]time.Duration, len(scs))}
	runtime.GC()
	var before, after runtime.MemStats
	for i, s := range scs {
		endCell := tr.span("bench.cell")
		runtime.ReadMemStats(&before)
		endRun := tr.span("sweep.scenario_run")
		t0 := time.Now()
		p.cells[i] = s.Run()
		p.cellWall[i] = time.Since(t0)
		endRun()
		runtime.ReadMemStats(&after)
		endCell()
		p.wall += p.cellWall[i]
		p.allocs += after.Mallocs - before.Mallocs
		p.bytes += after.TotalAlloc - before.TotalAlloc
		p.events += p.cells[i].Events
	}
	endJSON := tr.span("sweep.report_json")
	js, err := sweep.Report{Grid: name, Scenarios: p.cells}.JSON()
	endJSON()
	if err != nil {
		return p, fmt.Errorf("report JSON: %w", err)
	}
	endDigest := tr.span("bench.digest")
	sum := sha256.Sum256(js)
	p.digest = hex.EncodeToString(sum[:])
	endDigest()
	return p, nil
}

// failures lists the cell runs of a pass that failed the output checks:
// an error, a DNF outside the cells allowed one, a paper-band (or
// orphan) deviation, or no events at all. A digest that differs from
// the first pass of the same seed fails every cell of the pass, since
// the report no longer says which one moved.
func failures(scs []sweep.Scenario, p pass, wantDigest string) []string {
	var out []string
	for i, r := range p.cells {
		switch {
		case r.Err != "":
			out = append(out, fmt.Sprintf("%s: error: %s", r.Name, r.Err))
		case r.DNF && !scs[i].MayDNF:
			out = append(out, fmt.Sprintf("%s: did not finish", r.Name))
		case len(r.Deviations) > 0:
			out = append(out, fmt.Sprintf("%s: %s", r.Name, strings.Join(r.Deviations, "; ")))
		case r.Events == 0:
			out = append(out, fmt.Sprintf("%s: no events", r.Name))
		case wantDigest != "" && p.digest != wantDigest:
			out = append(out, fmt.Sprintf("%s: report digest %.12s differs from the first pass's %.12s", r.Name, p.digest, wantDigest))
		}
	}
	return out
}

// simMetrics derives the paper's three quantities and the throughput
// from a pass's results. They are virtual time: the same for every pass
// of a seed. A cell that may not finish is left out: the paper killed
// that run, and what it completed before its cap is not a rate of
// anything.
func simMetrics(scs []sweep.Scenario, cells []sweep.Result) (m map[string]float64, latCount uint64) {
	var latSum, cpu, wire, wall float64
	var ops uint64
	var p99 int64
	for i, r := range cells {
		if scs[i].MayDNF {
			continue
		}
		latSum += float64(r.LatMeanNS) * float64(r.LatCount)
		latCount += r.LatCount
		if r.LatP99NS > p99 {
			p99 = r.LatP99NS
		}
		cpu += float64(r.UserNS + r.SysNS + r.ServerNS)
		wire += float64(r.WireBytes)
		wall += float64(r.WallNS)
		ops += r.Ops
	}
	m = map[string]float64{"sim_fault_p99_ms": float64(p99) / 1e6}
	if latCount > 0 {
		m["sim_fault_mean_ms"] = latSum / float64(latCount) / 1e6
	}
	if ops > 0 {
		m["sim_host_us_per_op"] = cpu / float64(ops) / 1e3
		m["sim_wire_bytes_per_op"] = wire / float64(ops)
	}
	if wall > 0 {
		m["sim_ops_per_sec"] = float64(ops) / (wall / 1e9)
	}
	return m, latCount
}

// setupWorlds builds and shuts down, without running them, the worlds
// the workload's cells run in.
func setupWorlds(scs []sweep.Scenario, tr *tracer) error {
	defer tr.span("bench.setup")()
	for _, s := range scs {
		w, err := newWorld(s, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		end := tr.span("world.shutdown")
		w.Shutdown()
		end()
	}
	return nil
}

// newWorld builds the world one cell runs in, up to the point where the
// cell would spawn its processes: NewWorld, the segment, warm replicas
// where the cell warms. Scenario.Run offers no build-only entry, so this
// repeats what protocols.runCounter, workload.RunStationary, RunBarrier
// and RunHotspot do before they spawn, for the knobs the benchmark's
// cells set, and must be kept in step with them: when they change how a
// world is built, setup_s times the old way until this does too. A test
// checks that it builds no more than the cell's own run leaves behind.
func newWorld(s sweep.Scenario, tr *tracer) (*mether.World, error) {
	hosts, pages := s.Hosts, 8
	var owners []int
	switch s.Kind {
	case sweep.KindCounter:
		hosts = 2
		owners = []int{0}
		switch s.Protocol {
		case protocols.P3DisjointRO, protocols.P3Hysteresis, protocols.P5Final:
			owners = []int{0, 1}
		}
	case sweep.KindHotspot:
	case sweep.KindBarrier, sweep.KindStationary:
		if hosts > pages {
			pages = hosts
		}
		owners = make([]int, hosts)
		for i := range owners {
			owners[i] = i
		}
	default:
		return nil, fmt.Errorf("no set-up recipe for kind %q", s.Kind)
	}
	cfg := mether.Config{Hosts: hosts, Pages: pages, Seed: s.Seed, Trunks: s.Trunks}
	cfg.Medium.Kind = s.Medium
	// The runners set Core only when a cell overrides it; NewWorld fills
	// in DefaultConfig otherwise, so starting from it is the same.
	cfg.Core = core.DefaultConfig(pages)
	cfg.Core.LazyReplicas = s.Lazy
	if s.MinResidency > 0 {
		cfg.Core.MinResidency = s.MinResidency
	}
	if s.RetryTimeout > 0 {
		cfg.Core.RetryTimeout = s.RetryTimeout
	}
	if s.RingSlots > 0 {
		ring := s.RingSlots
		cfg.Medium.RingOf = func(int) int { return ring }
	}

	end := tr.span("mether.new_world")
	w := mether.NewWorld(cfg)
	end()
	end = tr.span("mether.create_segment")
	var seg *mether.Segment
	var err error
	if owners == nil {
		seg, err = w.CreateSegmentOnTrunk("bench", 1, s.OwnerTrunk)
	} else {
		seg, err = w.CreateSegmentOwners("bench", owners)
	}
	end()
	if err != nil {
		w.Shutdown()
		return nil, err
	}
	if s.WarmStart {
		end = tr.span("segment.warm_replicas")
		seg.WarmReplicas()
		end()
	}
	return w, nil
}

// setupBatchTime is about how long one timed batch of set-ups lasts, so
// a two-host world's microseconds are timed as reliably as a 4096-host
// world's tenth of a second.
const setupBatchTime = 50 * time.Millisecond

// setupBatch times count set-ups of the workload's worlds and returns
// the seconds one took.
func setupBatch(scs []sweep.Scenario, count int) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < count; i++ {
		if err := setupWorlds(scs, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(count), nil
}

// passSet accumulates the passes of one run. Its wall time is the sum
// over the cells of each cell's fastest pass. On a shared machine the
// neighbours only ever add time, in stretches of seconds to a minute
// during which everything runs about 1.4 times slower, so the fastest
// pass is the estimate of the program's own cost they disturb least,
// and a median of passes is whichever state the machine was mostly in.
type passSet struct {
	passes  []pass
	fastest []time.Duration // per cell
}

func (ps *passSet) add(p pass) {
	if ps.fastest == nil {
		ps.fastest = append(ps.fastest, p.cellWall...)
	}
	for i, d := range p.cellWall {
		if d < ps.fastest[i] {
			ps.fastest[i] = d
		}
	}
	ps.passes = append(ps.passes, p)
}

func (ps *passSet) wall() time.Duration {
	var sum time.Duration
	for _, d := range ps.fastest {
		sum += d
	}
	return sum
}

// repeatPasses runs whole passes until budget is spent, at least one.
func repeatPasses(name string, scs []sweep.Scenario, tr *tracer, budget time.Duration) (*passSet, error) {
	ps := &passSet{}
	for start := time.Now(); len(ps.passes) == 0 || time.Since(start) < budget; {
		p, err := runPass(name, scs, tr)
		if err != nil {
			return nil, err
		}
		ps.add(p)
	}
	return ps, nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// value is one reported metric of one workload.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread of the samples behind Value, when it is a timing.
	summary
	// AllocsPerOp is a micro-driver's heap allocations per operation.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// outcome is everything one in-process run of one workload found.
type outcome struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Attempted   int              `json:"attempted"` // cell runs
	Failed      int              `json:"failed"`
	Failures    []string         `json:"failures,omitempty"`
	EventsTotal uint64           `json:"events_total"`
	LatCount    uint64           `json:"lat_count"`
	Digest      string           `json:"digest"`
	Metrics     map[string]value `json:"metrics"`
}

func (o *outcome) set(name, unit string, s summary) {
	o.Metrics[name] = value{Value: s.Median, Unit: unit, summary: s}
}

// check counts one pass of the run's own workload: its cell runs, the
// ones that failed, and the digest every later pass must repeat.
func (o *outcome) check(scs []sweep.Scenario, p pass) {
	o.count(scs, p, o.Digest)
	if o.Digest == "" {
		o.Digest, o.EventsTotal = p.digest, p.events
	}
}

// count adds a pass's cell runs and failures to the run's totals.
func (o *outcome) count(scs []sweep.Scenario, p pass, wantDigest string) {
	f := failures(scs, p, wantDigest)
	o.Attempted += len(p.cells)
	o.Failed += len(f)
	o.Failures = append(o.Failures, f...)
}

func one(v float64) summary { return summary{Median: v, Q1: v, Q3: v, Min: v, Max: v, N: 1} }

// runEndToEnd measures the end-to-end metrics of one workload in this
// process, untraced: whole passes until budget is spent (always at
// least one), with a batch of set-ups between passes for about an
// eighth of the time, so that both are sampled across the whole run and
// each can report its fastest.
func runEndToEnd(name string, scs []sweep.Scenario, seed int64, budget time.Duration) (*outcome, error) {
	o := &outcome{Workload: name, Seed: seed, Metrics: make(map[string]value)}
	start := time.Now()
	// The first pass runs on an untouched heap, as in a process that only
	// ran the workload once, and the resident-set high-water mark is read
	// right after it: later it would be the luckless one of many passes'
	// collector timings (a 1024-host world read 37, 39 or 50 MB).
	ps := &passSet{}
	p, err := runPass(name, scs, nil)
	if err != nil {
		return nil, err
	}
	ps.add(p)
	o.check(scs, p)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// The first set-up is cold; the second sizes the batches.
	_, err = setupBatch(scs, 1)
	once, err2 := setupBatch(scs, 1)
	if err == nil {
		err = err2
	}
	if err != nil {
		// A world that cannot be built fails every cell of the workload.
		o.Attempted, o.Failed = len(scs), len(scs)
		o.Failures = []string{"set-up: " + err.Error()}
		return o, nil
	}
	count := int(setupBatchTime.Seconds()/once) + 1

	// At least three batches, however short the run.
	var setups []float64
	var setupSpent float64
	for len(setups) < 3 || time.Since(start) < budget {
		if len(setups) < 3 || setupSpent <= time.Since(start).Seconds()/8 {
			s, err := setupBatch(scs, count)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
			setupSpent += s * float64(count)
		}
		if time.Since(start) < budget {
			p, err := runPass(name, scs, nil)
			if err != nil {
				return nil, err
			}
			ps.add(p)
			o.check(scs, p)
		}
	}

	first := ps.passes[0]
	var walls, allocs, bytes []float64
	for _, p := range ps.passes {
		walls = append(walls, p.wall.Seconds())
		if p.events > 0 {
			allocs = append(allocs, float64(p.allocs)/float64(p.events))
			bytes = append(bytes, float64(p.bytes)/float64(p.events))
		}
	}
	setup := summarize(setups)
	o.Metrics["setup_s"] = value{Value: setup.Min, Unit: "s", summary: setup}
	wall := ps.wall().Seconds()
	o.Metrics["wall_s"] = value{Value: wall, Unit: "s", summary: summarize(walls)}
	if wall > 0 {
		o.set("events_per_sec", "1/s", one(float64(first.events)/wall))
	}
	o.set("allocs_per_event", "count", summarize(allocs))
	o.set("alloc_bytes_per_event", "B", summarize(bytes))
	o.set("peak_rss_mb", "MB", one(rss))
	sim, latCount := simMetrics(scs, first.cells)
	o.LatCount = latCount
	for _, m := range e2eMetrics {
		if v, ok := sim[m.Name]; ok {
			o.set(m.Name, m.Unit, one(v))
		}
	}
	return o, nil
}
