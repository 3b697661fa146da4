package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mether/internal/protocols"
	"mether/internal/sweep"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys, so
// the file has exactly these.
type benchmarkFile struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []benchmarkE2E      `json:"end_to_end"`
	PerLayer   []benchmarkLayer    `json:"per_layer"`
}

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the registry")

// writeBenchmarkFile renders the registry as BENCHMARK.json.
func writeBenchmarkFile(t *testing.T) {
	t.Helper()
	f := benchmarkFile{Command: driverCommand, Paths: []string{"bench"}, RunSeconds: driverRunSeconds}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchmarkWorkload{w.Name, w.Why})
	}
	for _, m := range e2eMetrics {
		f.EndToEnd = append(f.EndToEnd, benchmarkE2E{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range layerMetrics {
		f.PerLayer = append(f.PerLayer, benchmarkLayer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	if *update {
		writeBenchmarkFile(t)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesRegistry holds BENCHMARK.json and the
// harness's registry in step: same workloads, same metrics, in order.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	f := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not 1-64 of [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}

	if !reflect.DeepEqual(f.Command, driverCommand) || !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.RunSeconds != driverRunSeconds {
		t.Errorf("command %q, paths %q, run_seconds %d; the harness has %q, [bench], %d", f.Command, f.Paths, f.RunSeconds, driverCommand, driverRunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.Name)
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, harness %q: %q", i, f.Workloads[i], w.Name, w.Why)
		}
		if w.Name != allWorkloads[i] {
			t.Errorf("allWorkloads[%d] = %q, workloads[%d] is %q", i, allWorkloads[i], i, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(f.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(e2eMetrics))
	}
	declared := make(map[string]bool)
	for i, m := range e2eMetrics {
		checkName("end-to-end metric", m.Name)
		declared[m.Name] = true
		g := f.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: file has %+v, harness %+v", i, g, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit, direction or bound", m)
		}
	}
	if !declared["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}

	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(layerMetrics))
	}
	if len(layerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(layerMetrics))
	}
	isWorkload := make(map[string]bool)
	for _, n := range allWorkloads {
		isWorkload[n] = true
	}
	for i, m := range layerMetrics {
		checkName("per-layer metric", m.Name)
		g := f.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: file has %+v, harness %s %s %s", i, g, m.Name, m.Unit, m.Better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		for _, mv := range m.Moves {
			if !declared[mv.Metric] || !isWorkload[mv.Workload] {
				t.Errorf("per-layer metric %s is said to move %s on %s, which is not a declared pairing", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

func TestProfileFold(t *testing.T) {
	for symbol, want := range map[string]string{
		"mether/internal/sim.(*wheel).schedule":                 "sim",
		"mether/internal/sim.(*Kernel).runProc":                 "sim",
		"mether/internal/host.(*Proc).Use":                      "host",
		"mether/internal/medium.(*Ring).Pop":                    "medium",
		"mether/internal/ethernet.(*delivery).runBroadcast":     "ethernet",
		"mether/internal/fabric.(*Port).Send":                   "fabric",
		"mether/internal/proto.Decode":                          "proto",
		"mether/internal/core.(*Driver).handleFrame":            "core",
		"mether/internal/vm.(*Frame).Region":                    "vm",
		"mether/internal/workload.RunStationary.func1":          "app",
		"mether/internal/protocols.runCounter":                  "app",
		"mether.(*Mapping).Load32":                              "app",
		"mether/internal/stats.(*Histogram).Observe":            "other",
		"mether/bench.runPass":                                  "other",
		"main.runPass":                                          "other",
		"sort.Slice":                                            "other",
		"runtime.chanrecv":                                      "runtime_sched",
		"runtime.chansend1":                                     "runtime_sched",
		"runtime.casgstatus":                                    "runtime_sched",
		"runtime.futex":                                         "runtime_sched",
		"runtime.gopark":                                        "runtime_sched",
		"runtime.park_m":                                        "runtime_sched",
		"runtime.findRunnable":                                  "runtime_sched",
		"runtime.lock2":                                         "runtime_sched",
		"runtime.unlock2":                                       "runtime_sched",
		"runtime.nanotime":                                      "runtime_sched",
		"runtime.(*guintptr).cas":                               "runtime_sched",
		"runtime.(*timers).check":                               "runtime_sched",
		"runtime.gcBgMarkWorker":                                "runtime_gc",
		"runtime.scanobject":                                    "runtime_gc",
		"runtime.(*gcWork).tryGet":                              "runtime_gc",
		"runtime.bgsweep":                                       "runtime_gc",
		"runtime.mallocgc":                                      "runtime_other",
		"runtime.memmove":                                       "runtime_other",
		"runtime.mapaccess1":                                    "runtime_other",
		"runtime.nilinterequal":                                 "runtime_other",
		"internal/runtime/maps.ctrlGroup.matchH2":               "runtime_other",
		"internal/runtime/atomic.(*Int32).Add":                  "runtime_other",
		"runtime/internal/atomic.(*Uint32).CompareAndSwap":      "runtime_other",
		"internal/bytealg.IndexByteString":                      "runtime_other",
		"mether/internal/sweep.Scenario.Run":                    "other",
		"mether/internal/core.(*Driver).serve.func1[go.shape.x": "core",
	} {
		if got := bucketOf(symbol); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", symbol, got, want)
		}
	}

	top := `File: bench
Type: cpu
Duration: 1s, Total samples = 1000ms (100%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      400ms 40.00%  runtime.chanrecv
     300ms 30.00% 70.00%      900ms 90.00%  mether/internal/core.(*Driver).handleFrame
     200ms 20.00% 90.00%      200ms 20.00%  mether/internal/medium.(*Ring).Pop (inline)
     100ms 10.00%   100%      100ms 10.00%  runtime.scanobject
`
	shares, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range profileBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	for b, want := range map[string]float64{"runtime_sched": 0.4, "core": 0.3, "medium": 0.2, "runtime_gc": 0.1, "sim": 0} {
		if math.Abs(shares[b]-want) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", b, shares[b], want)
		}
	}
}

// sampled is a value whose samples all read v, give or take half of width.
func sampled(v, width float64) value {
	s := summarize([]float64{v - width/2, v - width/4, v, v + width/4, v + width/2})
	return value{Value: s.Median, summary: s}
}

func TestCompareVerdicts(t *testing.T) {
	wall := e2eMetrics[0]
	if wall.Name != "wall_s" {
		t.Fatalf("first end-to-end metric is %q, want wall_s", wall.Name)
	}
	for _, c := range []struct {
		name string
		a, b value
		want string
	}{
		{"same", sampled(10, 0.2), sampled(10.1, 0.2), verdictOK},
		{"better", sampled(10, 0.2), sampled(8, 0.2), verdictOK},
		{"worse beyond the bound", sampled(10, 0.2), sampled(10*(1+wall.Bound)+0.5, 0.2), verdictRegressed},
		{"noisy and overlapping", sampled(10, 20*wall.Bound), sampled(11, 20*wall.Bound), verdictUnresolved},
		{"noisy but apart", sampled(10, 20*wall.Bound), sampled(40, 20*wall.Bound), verdictRegressed},
	} {
		if got, _ := verdict(wall, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	rate := e2eMetric{Name: "events_per_sec", Better: "higher", Bound: 0.1}
	if got, _ := verdict(rate, sampled(100, 1), sampled(80, 1)); got != verdictRegressed {
		t.Errorf("a higher-is-better metric that fell 20%%: verdict %q, want %q", got, verdictRegressed)
	}

	mk := func(events uint64, wallS float64) result {
		return result{Workloads: map[string]*workloadResult{"snoop-eth-96": {
			EventsTotal: events, Digest: "d", Attempted: 5,
			EndToEnd: map[string]value{"wall_s": sampled(wallS, 0.1)},
		}}}
	}
	var out bytes.Buffer
	if code := compareResults(mk(100, 10), mk(100, 10.2), &out); code != 0 || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("equal runs: exit %d, output:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(mk(100, 10), mk(100, 20), &out); code == 0 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a run twice as slow: exit %d, output:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(mk(100, 10), mk(101, 20), &out); code != 0 || !strings.Contains(out.String(), verdictWorkChanged) {
		t.Errorf("changed events_total: exit %d, output:\n%s", code, out.String())
	}
	// What only one side measured is named and fails the comparison.
	out.Reset()
	partial := mk(100, 10)
	delete(partial.Workloads["snoop-eth-96"].EndToEnd, "wall_s")
	if code := compareResults(mk(100, 10), partial, &out); code == 0 || !strings.Contains(out.String(), missing) {
		t.Errorf("a metric only the parent has: exit %d, output:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(mk(100, 10), result{}, &out); code == 0 || !strings.Contains(out.String(), missing) {
		t.Errorf("a workload only the parent has: exit %d, output:\n%s", code, out.String())
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	s := summarize([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 || s.Min != 1 || s.Max != 46 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestCorrectnessGate feeds the harness cells whose outputs are wrong: a
// cell that errors and one that does not finish although it must.
func TestCorrectnessGate(t *testing.T) {
	scs := []sweep.Scenario{
		{Name: "bad-shape", Kind: sweep.KindStationary, Hosts: 4, Iters: 2, Seed: 1, Trunks: 2, TrunkShape: "moebius"},
		{Name: "cut-short", Kind: sweep.KindCounter, Protocol: protocols.P5Final, Target: 64, Seed: 1, Cap: time.Millisecond},
		{Name: "fine", Kind: sweep.KindCounter, Protocol: protocols.P5Final, Target: 64, Seed: 1},
	}
	out, err := runEndToEnd("gate", scs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempted != 3 || out.Failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2; failures: %q", out.Attempted, out.Failed, out.Failures)
	}
	if code := report(io.Discard, out); code == 0 {
		t.Error("exit code 0 with failed cell runs")
	}
}

type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID       int    `json:"id"`
			Parent   int    `json:"parent"`
			Workload string `json:"workload"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// TestSetupBuildsTheCellsWorld holds newWorld, which repeats by hand
// what the runners do before they spawn, against the runners, as far as
// that can be seen from outside: every cell's world builds, and since it
// has not run it is no larger than the cell's world after its run (which
// adds what faults and snooping materialize, up to twenty times as much
// on a hot page). A recipe that drifts to more hosts, pages, ring slots
// or warming than the runners build fails here; one that drifts to fewer
// is only caught by reading both, until internal/workload exports a
// build-only entry point.
func TestSetupBuildsTheCellsWorld(t *testing.T) {
	for _, w := range workloads {
		for _, s := range w.scenarios(1, true) {
			world, err := newWorld(s, nil)
			if err != nil {
				t.Errorf("%s: %v", s.Name, err)
				continue
			}
			built := world.MemFootprint()
			world.Shutdown()
			ran := s.Run().MemBytes
			if built == 0 || built > ran {
				t.Errorf("%s: set-up builds a world of %d B, the cell's run leaves one of %d B", s.Name, built, ran)
			}
		}
	}
}

// TestSmallEndToEnd builds the benchmark and runs the whole protocol at
// -scale small: fresh child per repetition, traced children, result file.
func TestSmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(exe, "-scale", "small", "-reps", "2", "-seconds", "0")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench -scale small -reps 2 -seconds 0: %v\n%s", err, out)
	}
	res, err := readResult(filepath.Join(dir, outDir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Provenance.Small || res.Provenance.Reps != 2 || res.Provenance.GoVersion == "" {
		t.Errorf("provenance %+v", res.Provenance)
	}
	for _, name := range allWorkloads {
		w := res.Workloads[name]
		if w == nil {
			t.Errorf("no result for workload %s", name)
			continue
		}
		if w.Failed != 0 || w.Attempted == 0 || w.EventsTotal == 0 || w.Digest == "" {
			t.Errorf("%s: failed %d of %d, events %d, digest %q: %q", name, w.Failed, w.Attempted, w.EventsTotal, w.Digest, w.Failures)
		}
		for _, m := range e2eMetrics {
			if v, ok := w.EndToEnd[m.Name]; !ok || v.N != 2 || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value over 2 repetitions", name, m.Name, v)
			}
		}
		for _, m := range layerMetrics {
			_, perWorkload := w.PerLayer[m.Name]
			_, once := res.Layers[m.Name]
			if !perWorkload && !once {
				t.Errorf("%s: per-layer metric %s not reported", name, m.Name)
			}
		}

		// The trace: spans of one workload, every child inside its parent.
		b, err := os.ReadFile(filepath.Join(dir, outDir, "trace-"+name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var tr chromeTrace
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Errorf("trace of %s: %v", name, err)
			continue
		}
		names := make(map[string]bool)
		for i, e := range tr.TraceEvents {
			names[e.Name] = true
			if e.Args.ID != i || e.Args.Workload != name {
				t.Errorf("trace of %s: event %d has id %d, workload %q", name, i, e.Args.ID, e.Args.Workload)
			}
			if e.Args.Parent < 0 {
				continue
			}
			p := tr.TraceEvents[e.Args.Parent]
			if e.Args.Parent >= i || e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+1e-3 {
				t.Errorf("trace of %s: span %d %s [%v+%v] is not inside its parent %d %s [%v+%v]", name, i, e.Name, e.Ts, e.Dur, e.Args.Parent, p.Name, p.Ts, p.Dur)
			}
		}
		for _, want := range []string{"bench.workload", "bench.setup", "mether.new_world", "mether.create_segment", "world.shutdown", "bench.cell", "sweep.scenario_run", "sweep.report_json", "bench.digest"} {
			if !names[want] {
				t.Errorf("trace of %s has no %s span", name, want)
			}
		}
	}
}
