// Command methersweep runs named scenario grids through the parallel
// sweep engine and emits deterministic JSON or CSV reports.
//
// The report on stdout is a pure function of (grid, target, seed): it
// contains only virtual-time measurements, so it is byte-identical
// across runs, worker counts and machines — diff two runs to prove a
// change is a no-op, or use -baseline to compare against a saved report.
// Real-time execution stats (wall clock, per-worker speedup) go to
// stderr, where they cannot perturb the report.
//
// Examples:
//
//	methersweep -list
//	methersweep -grid smoke
//	methersweep -grid paper -target 1024 -o paper.json
//	methersweep -grid paper -baseline paper.json -tolerance 0.05
//	methersweep -grid all -workers 1 -format csv
//	methersweep -grid cluster -hosts 16
//	methersweep -grid cluster -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mether/internal/protocols"
	"mether/internal/stats"
	"mether/internal/sweep"
)

var (
	flagGrid      = flag.String("grid", "smoke", "named grid to run (see -list)")
	flagList      = flag.Bool("list", false, "list available grids and exit")
	flagWorkers   = flag.Int("workers", 0, "concurrent scenarios (0 = GOMAXPROCS; 1 is the serial baseline for speedup measurement)")
	flagTarget    = flag.Uint("target", 1024, "counter target for protocol scenarios")
	flagSeed      = flag.Int64("seed", 1, "simulation seed for every scenario")
	flagHosts     = flag.Int("hosts", 0, "restrict host-count grids (cluster) to one size (0 = all)")
	flagOnly      = flag.String("only", "", "run only the scenarios whose name contains this substring (profiling a single cell)")
	flagFormat    = flag.String("format", "json", "report format: json, csv or summary")
	flagOut       = flag.String("o", "", "write the report to a file instead of stdout")
	flagBaseline  = flag.String("baseline", "", "JSON report to compare against")
	flagTolerance = flag.Float64("tolerance", 0, "relative change below which -baseline deltas are ignored")
	flagQuiet     = flag.Bool("q", false, "suppress the timing summary on stderr")
	flagCPUProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	flagMemProf   = flag.String("memprofile", "", "write a heap profile (post-sweep) to this file")
	flagAllocCeil = flag.Float64("alloc-ceiling", 0, "fail if the sweep allocates more than this per dispatched event (0 = no gate)")
)

func main() {
	flag.Parse()
	if *flagList {
		for _, name := range sweep.GridNames() {
			scs, _ := sweep.Grid(name, sweep.Options{})
			fmt.Printf("%-12s %3d scenarios\n", name, len(scs))
		}
		return
	}

	switch *flagFormat {
	case "json", "csv", "summary":
	default:
		// Reject before running: a bad format must not cost a full sweep.
		fatal(fmt.Errorf("unknown format %q (want json, csv or summary)", *flagFormat))
	}
	target, err := protocols.Target(*flagTarget)
	if err != nil {
		fatal(err)
	}
	if err := protocols.Positive("seed", *flagSeed); err != nil {
		fatal(err)
	}
	// The axis values are the grid's to judge: sweep.Grid rejects a bad
	// one here, before any scenario runs.
	scs, err := sweep.Grid(*flagGrid, sweep.Options{Target: target, Seed: *flagSeed, Hosts: *flagHosts})
	if err != nil {
		fatal(err)
	}
	// -only narrows the grid before the sweep runs, so profiles capture a
	// single named cell instead of the whole grid (the DNF gate below
	// indexes scs, which must therefore stay aligned with the report).
	if *flagOnly != "" {
		kept := scs[:0]
		for _, s := range scs {
			if strings.Contains(s.Name, *flagOnly) {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			fatal(fmt.Errorf("-only %q matches no scenario in grid %q", *flagOnly, *flagGrid))
		}
		scs = kept
	}

	// Every exit below goes through fatal() or exit(), both of which
	// finalize the CPU profile: a deferred StopCPUProfile would be
	// skipped by os.Exit, and the runs that fail (band deviations,
	// baseline deltas) are exactly the ones worth profiling.
	if *flagCPUProf != "" {
		f, err := os.Create(*flagCPUProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	report, timing := sweep.Runner{Workers: *flagWorkers}.Run(*flagGrid, scs)
	// The post-sweep MemStats snapshot for the alloc gate is taken
	// before anything else (report marshalling, file writes) can
	// allocate against the sweep's budget.
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	// The allocs/event ceiling is a regression gate on the engine's
	// zero-allocation hot path: CI runs the cluster smoke cell with
	// -alloc-ceiling 0.1 so a leaked per-event allocation fails the
	// build instead of quietly eroding throughput.
	allocFailure := false
	if *flagAllocCeil > 0 {
		var events uint64
		for _, s := range report.Scenarios {
			events += s.Events
		}
		if events == 0 {
			fmt.Fprintf(os.Stderr, "alloc gate: no events dispatched, cannot compute allocs/event\n")
			allocFailure = true
		} else if perEvent := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(events); perEvent > *flagAllocCeil {
			fmt.Fprintf(os.Stderr, "alloc gate: %.4f allocs/event exceeds ceiling %.4f (%d allocs over %d events)\n",
				perEvent, *flagAllocCeil, msAfter.Mallocs-msBefore.Mallocs, events)
			allocFailure = true
		} else {
			fmt.Fprintf(os.Stderr, "alloc gate: %.4f allocs/event within ceiling %.4f\n", perEvent, *flagAllocCeil)
		}
	}
	if *flagMemProf != "" {
		f, err := os.Create(*flagMemProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	var out []byte
	switch *flagFormat {
	case "json":
		out, err = report.JSON()
		if err != nil {
			fatal(err)
		}
	case "csv":
		out = report.CSV()
	case "summary":
		out = []byte(report.Summary())
	}
	if *flagOut != "" {
		if err := os.WriteFile(*flagOut, out, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(out)
	}

	if !*flagQuiet {
		var events uint64
		for _, s := range report.Scenarios {
			events += s.Events
		}
		e := timing.Engine
		share := func(n uint64) float64 { return 100 * stats.Ratio(n, events) }
		fmt.Fprintf(os.Stderr, "sweep %s: %d scenarios, %d workers, elapsed %v, serial-equivalent %v, speedup %.2fx, %d events of which %d coroutine resumes; popped %.2f%%, batched %.2f%%, skipped in the lane %.2f%%\n",
			*flagGrid, len(scs), timing.Workers, timing.Elapsed.Round(time.Millisecond), timing.Serial.Round(time.Millisecond), timing.Speedup, events, e.Resumes,
			share(e.Pops), share(e.Batched), share(e.Skipped))
	}

	// A scenario error or an out-of-band paper check is a gate failure:
	// the band checks exist to catch calibration drift, so drifting
	// outside them must flip the exit code.
	failures := 0
	if allocFailure {
		failures++
	}
	for i, r := range report.Scenarios {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "scenario %s failed: %s\n", r.Name, r.Err)
			failures++
		}
		// A cell that fails to finish is correctness drift unless the
		// grid marked it as a "Never finished"-style measurement
		// (Figure 6, hysteresis extremes, lossy passive protocols).
		if r.DNF && !scs[i].MayDNF {
			fmt.Fprintf(os.Stderr, "scenario %s did not finish (unexpected DNF)\n", r.Name)
			failures++
		}
		for _, d := range r.Deviations {
			fmt.Fprintf(os.Stderr, "band deviation: %s\n", d)
		}
		if len(r.Deviations) > 0 {
			failures++
		}
	}

	if *flagBaseline != "" {
		base, err := os.ReadFile(*flagBaseline)
		if err != nil {
			fatal(err)
		}
		baseRep, err := sweep.ParseJSON(base)
		if err != nil {
			fatal(err)
		}
		// -only narrowed the run; narrow the baseline the same way, or
		// every cell left out would read as missing from the report.
		deltas := sweep.Compare(baseRep.Only(*flagOnly), report, *flagTolerance)
		if len(deltas) == 0 {
			fmt.Fprintf(os.Stderr, "baseline %s: no deltas beyond tolerance %.3g\n", *flagBaseline, *flagTolerance)
		}
		var lines []string
		for _, d := range deltas {
			lines = append(lines, "  "+d.String())
		}
		if len(lines) > 0 {
			fmt.Fprintf(os.Stderr, "baseline %s: %d delta(s)\n%s\n", *flagBaseline, len(deltas), strings.Join(lines, "\n"))
			failures++
		}
	}
	if failures > 0 {
		exit(1)
	}
}

// exit finalizes any in-flight CPU profile (StopCPUProfile is a no-op
// when none is running) and terminates; os.Exit skips deferred calls,
// so non-zero exits must route through here.
func exit(code int) {
	pprof.StopCPUProfile()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "methersweep:", err)
	exit(1)
}
