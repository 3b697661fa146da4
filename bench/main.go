// Command bench is the repository's benchmark: six fixed-work workloads
// timed from outside through sweep.Scenario.Run, per-layer micro-drivers
// over each package's exported functions, and a traced pass that says
// where inside a run the host's time went. See README.md.
//
// Run it from this directory (`go run -C bench .` from the repository
// root, or bench/run.sh, which also keeps the build cache inside the
// checkout). Three ways to call it:
//
//	bench [-workload w] [-reps n] [-seed s] [-scale small] [-e2e-only|-layers-only]
//	    the full protocol: every (workload, repetition) in a fresh child
//	    process, then one traced child per workload; writes out/result.json
//	bench -workload w -seed s -seconds t -trace 0|1
//	    one run in this process, the unit the full protocol repeats;
//	    the last line of output is the run's JSON result
//	bench -compare A.json B.json
//	    verdict per (end-to-end metric, workload) between two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// procs pins GOMAXPROCS for every measuring process. One P: the kernel
// and process goroutines hand control over on one thread, as they do
// inside a saturated sweep.Runner pool. With a second, idle P every
// hand-off wakes it through a futex, and in a VM the cost of that wake
// follows the hypervisor's load: the same cell ran 1.1 to 2 times slower
// and three times noisier (README, "One P").
const procs = 1

const outDir = "out"

type options struct {
	workload   string
	seed       int64
	seconds    int
	reps       int
	small      bool // -scale small: every cell cut to test size
	layersOnly bool
	e2eOnly    bool
	// noDrivers is set by the harness on all but its first traced child:
	// the layer micro-drivers do not depend on the workload, so one
	// invocation measures them once.
	noDrivers bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var scale string
	var compare bool
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every scenario and micro-driver")
	fs.IntVar(&o.seconds, "seconds", 10, "repeat whole passes for this long within one run (0 = one pass)")
	fs.IntVar(&o.reps, "reps", 5, "fresh-process repetitions per workload")
	fs.StringVar(&scale, "scale", "", "small: every cell cut to at most 16 hosts, for tests")
	fs.BoolVar(&o.layersOnly, "layers-only", false, "only the layer micro-drivers")
	fs.BoolVar(&o.e2eOnly, "e2e-only", false, "only the end-to-end repetitions")
	fs.BoolVar(&o.noDrivers, "no-drivers", false, "with -trace 1: the traced passes without the layer micro-drivers (set by the harness)")
	fs.IntVar(&trace, "trace", 0, "run once in this process: 0 end-to-end metrics untraced, 1 per-layer metrics traced")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if scale != "" && scale != "small" {
		return usage("unknown -scale %q", scale)
	}
	o.small = scale == "small"
	if o.layersOnly && o.e2eOnly {
		return usage("-layers-only and -e2e-only exclude each other")
	}
	if compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return usage("unknown workload %q", o.workload)
		}
	}
	if o.reps < 1 || o.seconds < 0 {
		return usage("-reps must be at least 1 and -seconds at least 0")
	}
	inProcess := false
	fs.Visit(func(f *flag.Flag) { inProcess = inProcess || f.Name == "trace" })
	if !inProcess {
		if o.noDrivers {
			return usage("-no-drivers needs -trace 1")
		}
		return harness(o)
	}
	if trace != 0 && trace != 1 {
		return usage("-trace takes 0 or 1")
	}
	return runOnce(o, trace == 1)
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 2
}

// runOnce is one run of one workload in this process.
func runOnce(o options, traced bool) int {
	runtime.GOMAXPROCS(procs)
	w, ok := workloadByName(o.workload)
	if !ok {
		return usage("-trace needs -workload")
	}
	if (o.layersOnly || o.noDrivers) && !traced {
		return usage("-layers-only and -no-drivers need -trace 1")
	}
	if o.e2eOnly || (o.layersOnly && o.noDrivers) {
		return usage("-e2e-only is the full protocol's; -layers-only and -no-drivers exclude each other")
	}
	scs := w.scenarios(o.seed, o.small)
	var out *outcome
	var err error
	if traced {
		out, err = runTraced(w.Name, scs, o)
	} else {
		out, err = runEndToEnd(w.Name, scs, o.seed, time.Duration(o.seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return report(os.Stdout, out)
}

// report prints every metric of one run as a row, the failed checks,
// the detail line the harness reads and, last, the run's result line.
// The exit code is non-zero when any output check failed.
func report(w io.Writer, out *outcome) int {
	printRows(w, out.Workload, out.EventsTotal, out.Metrics)
	for _, f := range out.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, make(map[string]metric)}
	for name, v := range out.Metrics {
		result.Metrics[name] = metric{v.Value, v.Unit}
	}
	detail, err := json.Marshal(out)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(result); err == nil {
			fmt.Fprintf(w, "detail %s\n%s\n", detail, line)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if out.Failed > 0 {
		return 1
	}
	return 0
}

// printRows prints `workload metric value unit n q1 q3 min`, with the
// workload's events_total so a change of work is visible beside a
// change of speed.
func printRows(w io.Writer, workload string, events uint64, metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := metrics[n]
		fmt.Fprintf(w, "%-16s %-34s %14.6g %-6s n=%d q1=%.6g q3=%.6g min=%.6g events_total=%d\n",
			workload, n, v.Value, v.Unit, v.N, v.Q1, v.Q3, v.Min, events)
	}
}
