package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"mether/internal/sweep"
)

// gcCounters reads the runtime's cumulative estimate of CPU seconds spent
// in the collector and its count of completed cycles. (The runtime's
// total-CPU class only advances during GC cycles, so it is no
// denominator; the traced window's own length is.)
func gcCounters() (gcCPU float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// runTraced measures the per-layer metrics of one workload in this
// process: untraced passes as the baseline, then the same passes with
// spans around every call the harness makes into a layer and one CPU
// profile over them folded by layer, then the layer micro-drivers.
// End-to-end metrics never come from here.
func runTraced(name string, scs []sweep.Scenario, o options) (*outcome, error) {
	out := &outcome{Workload: name, Seed: o.seed, Metrics: make(map[string]value)}
	set := func(metric, unit string, v float64) { out.set(metric, unit, one(v)) }
	// A quarter of the run's seconds for each kind of pass: the rest of
	// a traced run is the micro-drivers.
	budget := time.Duration(o.seconds) * time.Second / 4
	var figures *pass // an untraced pass over the paper-figures cells
	if !o.layersOnly {
		plain, err := repeatPasses(name, scs, nil, budget)
		if err != nil {
			return nil, err
		}
		for _, p := range plain.passes {
			out.check(scs, p)
		}
		if name == "paper-figures" {
			figures = &plain.passes[0]
		}

		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		tr := newTracer(name)
		endWorkload := tr.span("bench.workload")
		if err := setupWorlds(scs, tr); err != nil {
			return nil, err
		}
		profile := filepath.Join(outDir, "cpu-"+name+".pprof")
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		gc0, cycles0 := gcCounters()
		t0 := time.Now()
		traced, err := repeatPasses(name, scs, tr, budget)
		window := time.Since(t0)
		gc1, cycles1 := gcCounters()
		pprof.StopCPUProfile()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		endWorkload()
		for _, p := range traced.passes {
			out.check(scs, p)
		}
		if err := tr.writeChrome(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return nil, err
		}

		shares, err := foldProfile(profile)
		if err != nil {
			return nil, err
		}
		for _, b := range profileBuckets {
			set("trace.self_share."+b, "share", shares[b])
		}
		set("runtime.gc_cpu_share", "share", (gc1-gc0)/(window.Seconds()*procs))
		set("runtime.num_gc", "count", float64(cycles1-cycles0)/float64(len(traced.passes)))
		set("trace_overhead_pct", "%", 100*(traced.wall().Seconds()-plain.wall().Seconds())/plain.wall().Seconds())
		for name, d := range tr.selfTime() {
			fmt.Printf("span %-24s self %12.6f s\n", name, d.Seconds())
		}
	}
	if !o.noDrivers {
		runLayers(o.seed, o.small, out.Metrics)
		if figures == nil {
			fw, _ := workloadByName("paper-figures")
			fscs := fw.scenarios(o.seed, o.small)
			p, err := runPass(fw.Name, fscs, nil)
			if err != nil {
				return nil, err
			}
			// These cells are checked like any other run: a figure cell
			// that fails here is a wrong output of this run.
			out.count(fscs, p, "")
			figures = &p
		}
		for i, r := range figures.cells {
			wall := figures.cellWall[i]
			set("cell_wall_ms."+r.Name, "ms", wall.Seconds()*1e3)
			if r.Events > 0 {
				set("cell_ns_per_event."+r.Name, "ns", float64(wall.Nanoseconds())/float64(r.Events))
			}
		}
	}
	return out, nil
}
