package sweep

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mether/internal/analysis"
	"mether/internal/choice"
	"mether/internal/protocols"
	"mether/internal/workload"
)

func TestGridNamesAllBuild(t *testing.T) {
	for _, name := range GridNames() {
		scs, err := Grid(name, Options{Target: 64})
		if err != nil {
			t.Fatalf("Grid(%q): %v", name, err)
		}
		if len(scs) == 0 {
			t.Errorf("grid %q is empty", name)
		}
		seen := make(map[string]bool)
		for _, s := range scs {
			if s.Name == "" || s.Kind == "" {
				t.Errorf("grid %q has an unnamed scenario: %+v", name, s)
			}
			if seen[s.Name] {
				t.Errorf("grid %q duplicates scenario name %q", name, s.Name)
			}
			seen[s.Name] = true
		}
	}
}

func TestGridUnknownName(t *testing.T) {
	if _, err := Grid("no-such-grid", Options{}); err == nil {
		t.Error("unknown grid should error")
	}
}

func TestPaperGridIsLargeEnough(t *testing.T) {
	// The sweep's reason to exist: many-scenario grids. "paper" and
	// "all" must both exceed a dozen scenarios.
	for _, name := range []string{"paper", "all"} {
		scs, err := Grid(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(scs) < 12 {
			t.Errorf("grid %q has %d scenarios, want >= 12", name, len(scs))
		}
	}
}

func TestRunnerRunsAllScenarios(t *testing.T) {
	scs := detGrid(smokeSeed)
	rep, tm := pooledSmoke(0, 4)
	if len(rep.Scenarios) != len(scs) {
		t.Fatalf("got %d results for %d scenarios", len(rep.Scenarios), len(scs))
	}
	for i, r := range rep.Scenarios {
		if r.Name != scs[i].Name {
			t.Errorf("result %d is %q, want grid order %q", i, r.Name, scs[i].Name)
		}
		if r.Err != "" {
			t.Errorf("%s failed: %s", r.Name, r.Err)
		}
		if r.WallNS <= 0 || r.Ops == 0 {
			t.Errorf("%s: implausible result %+v", r.Name, r)
		}
	}
	if tm.Workers < 1 || tm.Elapsed <= 0 || tm.Serial <= 0 {
		t.Errorf("implausible timing %+v", tm)
	}
	var events uint64
	for _, r := range rep.Scenarios {
		events += r.Events
	}
	// Clients are coroutines and servers are not: some events resume
	// one, most do not.
	if tm.Engine.Resumes == 0 || tm.Engine.Resumes >= events {
		t.Errorf("timing counts %d coroutine resumes among %d events", tm.Engine.Resumes, events)
	}
	if len(tm.PerScenario) != len(scs) {
		t.Errorf("timing has %d per-scenario entries, want %d", len(tm.PerScenario), len(scs))
	}
}

func TestRunnerFoldsScenarioErrors(t *testing.T) {
	scs := []Scenario{
		{Name: "bad-kind", Kind: Kind("nope")},
		{Name: "bad-hotspot", Kind: KindHotspot, Hosts: 1, Iters: 1},
		// Worlds that cannot be built: each used to panic out of
		// mether.NewWorld and take the sweep worker with it.
		{Name: "fabric-trunks", Kind: KindStationary, Hosts: 4, Trunks: 2, Medium: "fabric"},
		{Name: "bad-medium", Kind: KindStationary, Hosts: 4, Medium: "token-ring"},
		{Name: "trunks-over-hosts", Kind: KindStationary, Hosts: 2, Trunks: 3},
		{Name: "negative-trunks", Kind: KindBarrier, Hosts: 2, Trunks: -1},
		{Name: "bad-medium-counter", Kind: KindCounter, Protocol: protocols.P5Final, Target: 16, Medium: "token-ring"},
		{Name: "fault-beyond-world", Kind: KindPipeline, Stages: 2, Faults: "crash@1ms:h9"},
		{Name: "good", Kind: KindCounter, Protocol: protocols.P5Final, Target: 16, Seed: 1},
	}
	rep, _ := Runner{Workers: 2}.Run("errs", scs)
	good := len(scs) - 1
	for i, r := range rep.Scenarios[:good] {
		if r.Err == "" {
			t.Errorf("%s should carry an error", scs[i].Name)
		}
	}
	if rep.Scenarios[good].Err != "" {
		t.Errorf("good scenario failed: %s", rep.Scenarios[good].Err)
	}
}

// TestScenarioRejectsNegatives holds every count and duration a kind
// reads to zero or more: zero runs the default, and a negative value is
// the cell's error, naming the field, where it used to panic the sweep
// (a slice made or cut to a negative length), wrap the op count, or run
// nothing and report success.
func TestScenarioRejectsNegatives(t *testing.T) {
	p5, p3h := protocols.P5Final, protocols.P3Hysteresis
	for _, row := range []struct {
		name  string
		s     Scenario
		field string // in the error; "" for a cell that runs
	}{
		{"barrier", Scenario{Kind: KindBarrier, Hosts: 2, Phases: 2}, ""},
		{"pipe", Scenario{Kind: KindPipe, Dist: workload.Fixed{Size: 8}, Messages: 2}, ""},
		{"pipeline defaults", Scenario{Kind: KindPipeline, Stages: 2}, ""},
		{"empty messages", Scenario{Kind: KindPipe, Dist: workload.Fixed{}, Messages: 1}, ""},
		{"default cap", Scenario{Kind: KindCounter, Protocol: p5, Target: 4}, ""},
		{"one-nanosecond cap", Scenario{Kind: KindCounter, Protocol: p5, Target: 4, Cap: 1}, ""},
		{"negative Phases", Scenario{Kind: KindBarrier, Hosts: 2, Phases: -1}, "Phases"},
		{"negative barrier HysteresisN", Scenario{Kind: KindBarrier, Hosts: 2, HysteresisN: -1}, "HysteresisN"},
		{"negative Messages", Scenario{Kind: KindPipeline, Stages: 2, Messages: -2}, "Messages"},
		{"negative MsgSize", Scenario{Kind: KindPipeline, Stages: 2, MsgSize: -2}, "MsgSize"},
		{"negative Dist", Scenario{Kind: KindPipe, Dist: workload.Fixed{Size: -2}, Messages: 1}, "Dist"},
		{"negative Updates", Scenario{Kind: KindFanout, FanoutMode: protocols.FanoutDataDriven, Readers: 1, Updates: -2}, "Updates"},
		{"negative hotspot Iters", Scenario{Kind: KindHotspot, Hosts: 2, Iters: -1}, "Iters"},
		{"negative stationary Iters", Scenario{Kind: KindStationary, Hosts: 2, Iters: -1}, "Iters"},
		{"negative Stagger", Scenario{Kind: KindStationary, Hosts: 2, Iters: 1, Stagger: -time.Millisecond}, "Stagger"},
		{"negative counter HysteresisN", Scenario{Kind: KindCounter, Protocol: p3h, Target: 4, HysteresisN: -1}, "HysteresisN"},
		{"negative SleepHyst", Scenario{Kind: KindCounter, Protocol: p3h, Target: 4, SleepHyst: -time.Millisecond}, "SleepHyst"},
		{"negative Cap", Scenario{Kind: KindCounter, Protocol: p5, Target: 4, Cap: -time.Second}, "Cap"},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.s.Name, row.s.Seed = row.name, 1
			r := row.s.Run()
			switch {
			case row.field == "" && r.Err != "":
				t.Errorf("failed: %s", r.Err)
			case row.field == "" && r.Ops == 0 && !r.DNF:
				t.Errorf("ran nothing and finished: %+v", r)
			case row.field != "" && !strings.Contains(r.Err, row.field):
				t.Errorf("error %q does not name %s (ops %d, dnf %v)", r.Err, row.field, r.Ops, r.DNF)
			}
		})
	}
}

// FuzzScenario runs the small scenario its input draws as a choice tape
// (internal/choice): a cell may fail with an error, but never panic or
// count more ops than a run can make. The seeds are the error rows of
// TestScenarioRejectsNegatives and a loss row like TestConfigValidate's.
func FuzzScenario(f *testing.F) {
	for _, in := range []string{
		"\x04\x00\x00\x00\x02\x00\x0a",                                             // barrier Phases -1
		"\x04\x00\x00\x00\x02\x00\x00\x00\x00\x00\x0a",                             // barrier HysteresisN -1
		"\x05\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00\x02",                     // pipeline Messages -2
		"\x05\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x02",                     // pipeline MsgSize -2
		"\x02\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x09",             // pipe Dist Fixed{-2}
		"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x09\x00\x01",                         // fanout Updates -2
		"\x03\x00\x00\x00\x02\x0a",                                                 // hotspot Iters -1
		"\x06\x00\x00\x00\x02\x0a",                                                 // stationary Iters -1
		"\x06\x00\x00\x00\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x33", // stationary Stagger -1ms
		"\x00\x00\x05\x03\x00\x00\x00\x00\x00\x00\x0a",                             // P3h HysteresisN -1
		"\x00\x00\x05\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x33",     // P3h SleepHyst -1ms
		"\x00\x03\x07\x03", // P5 Cap -1s
		"\x00\x00\x07\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x06", // P5 LossRate 1.5
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := drawScenario(choice.New(in))
		if r := s.Run(); r.Err == "" && r.Ops >= 1<<32 {
			t.Fatalf("%+v: %d ops", s, r.Ops)
		}
	})
}

// drawScenario reads a scenario off the tape, a byte a field in the
// order below (a zero byte draws 0, or the first value listed): any kind
// and protocol, Target 1..16, 0..4 hosts, counts -2..8, durations
// -1..50 ms, loss -0.5..1.5, 0..2 trunks, 3 media, a cap of at most 2 s.
func drawScenario(tp *choice.Tape) Scenario {
	kinds := []Kind{KindCounter, KindFanout, KindPipe, KindHotspot, KindBarrier, KindPipeline, KindStationary}
	caps := []time.Duration{2 * time.Second, 200 * time.Millisecond, time.Millisecond, -time.Second}
	count := func() int { return (tp.Choose(11)+2)%11 - 2 }
	dur := func() time.Duration { return time.Duration((tp.Choose(52)+1)%52-1) * time.Millisecond }
	loss := func() float64 { return float64((tp.Choose(9)+2)%9-2) / 4 }
	return Scenario{Name: "fuzz", Seed: 1,
		Kind:     kinds[tp.Choose(len(kinds))],
		Cap:      caps[tp.Choose(len(caps))],
		Protocol: protocols.Protocol(tp.Choose(8) + 1),
		Target:   uint32(tp.Choose(16) + 1),
		Hosts:    tp.Choose(5),
		Iters:    count(), Phases: count(), Messages: count(), MsgSize: count(), Updates: count(), HysteresisN: count(),
		Readers: count(), Stages: count(), Writers: count(),
		Dist:       workload.Fixed{Size: count()},
		FanoutMode: protocols.FanoutMode(tp.Choose(2) + 1),
		SleepHyst:  dur(), Stagger: dur(), CheckEvery: dur(),
		LossRate: loss(),
		Trunks:   tp.Choose(3),
		Medium:   []string{"ethernet", "fabric", "token-ring"}[tp.Choose(3)],
	}
}

// TestClusterCarriesEveryAxis is the guard behind "declare an axis
// once": a Scenario with every field set must leave no field of the
// workload.Options it produces zero. An Options field added without its
// line in Scenario.cluster — the bug class where one runner copied a
// knob and another silently dropped it — fails here.
func TestClusterCarriesEveryAxis(t *testing.T) {
	var s Scenario
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64, reflect.Uint32:
			f.Set(reflect.ValueOf(3).Convert(f.Type()))
		case reflect.Float64:
			f.SetFloat(0.5)
		}
	}
	s.Medium, s.TrunkShape, s.Faults = "fabric", "linear", "crash@1ms:h1"
	opts, err := s.cluster()
	if err != nil {
		t.Fatal(err)
	}
	o := reflect.ValueOf(opts)
	for i := 0; i < o.NumField(); i++ {
		name := o.Type().Field(i).Name
		// HostParams is a calibration override of the workstation model;
		// no Scenario axis maps to it.
		if name != "HostParams" && o.Field(i).IsZero() {
			t.Errorf("Options.%s is not set from any Scenario field", name)
		}
	}
}

func TestCounterConfigCarriesAxes(t *testing.T) {
	s := Scenario{
		Kind: KindCounter, Protocol: protocols.P2ShortPage, Target: 128,
		Seed: 9, LossRate: 0.01, KernelServer: true, HysteresisN: 7,
		Cap: 3 * time.Second,
	}
	opts, err := s.cluster()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.counterConfig(opts)
	if cfg.Protocol != protocols.P2ShortPage || cfg.Target != 128 || cfg.Seed != 9 {
		t.Errorf("basic fields lost: %+v", cfg)
	}
	if cfg.LossRate != 0.01 {
		t.Errorf("loss axis lost: %v", cfg.LossRate)
	}
	if !cfg.KernelServer {
		t.Error("kernel-server axis lost")
	}
	if cfg.HysteresisN != 7 || cfg.Cap != 3*time.Second {
		t.Errorf("tuning lost: %+v", cfg)
	}
	s.Faults = "bogus"
	if _, err := s.cluster(); err == nil {
		t.Error("a malformed fault spec made a counter config")
	}
}

// TestKindTableIsTheListOfKinds fails when a Kind constant declared in
// sweep.go has no entry in the kind table or no smoke cell, or when the
// table holds a kind no constant declares.
func TestKindTableIsTheListOfKinds(t *testing.T) {
	src, err := os.ReadFile("sweep.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := regexp.MustCompile(`(?m)^\tKind\w+ +Kind = "(\w+)"$`).FindAllStringSubmatch(string(src), -1)
	inSmoke := map[Kind]bool{}
	for _, s := range smoke(smokeSeed) {
		inSmoke[s.Kind] = true
	}
	for _, m := range declared {
		if _, ok := kinds[Kind(m[1])]; !ok || !inSmoke[Kind(m[1])] {
			t.Errorf("kind %q: in the kind table %v, in the smoke grid %v", m[1], ok, inSmoke[Kind(m[1])])
		}
	}
	if len(declared) < 7 || len(kinds) != len(declared) {
		t.Errorf("%d kinds declared, %d in the kind table", len(declared), len(kinds))
	}
}

func TestBandCheckUnknownFigure(t *testing.T) {
	devs := bandCheck("Figure 99", workload.Report{})
	if len(devs) != 1 || !strings.Contains(devs[0], "unknown figure") {
		t.Errorf("devs = %v", devs)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{Grid: "g", Scenarios: []Result{
		{Name: "a", Kind: KindCounter, Seed: 1, WallNS: 10, Ops: 2, Deviations: []string{"x"}},
	}}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid != "g" || len(got.Scenarios) != 1 || got.Scenarios[0].Name != "a" {
		t.Errorf("round trip lost data: %+v", got)
	}
	if !json.Valid(b) {
		t.Error("JSON() produced invalid JSON")
	}
}

func TestParseJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseJSON([]byte("{nope")); err == nil {
		t.Error("garbage baseline should error")
	}
}

func TestReportCSVShape(t *testing.T) {
	rep := Report{Grid: "g", Scenarios: []Result{
		{Name: "with,comma", Kind: KindPipe, Seed: 1},
		{Name: "plain", Kind: KindCounter, Seed: 2, Err: "boom"},
	}}
	lines := strings.Split(strings.TrimRight(string(rep.CSV()), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	wantCols := len(strings.Split(lines[0], ","))
	if !strings.HasPrefix(lines[1], "\"with,comma\"") {
		t.Errorf("comma name not quoted: %s", lines[1])
	}
	if got := len(strings.Split(lines[2], ",")); got != wantCols {
		t.Errorf("row has %d cols, header %d", got, wantCols)
	}
}

func TestCSVQuoteRFC4180(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"a,b", `"a,b"`},
		{`say "hi"`, `"say ""hi"""`},
		{"two\nlines", "\"two\nlines\""},
	}
	for _, c := range cases {
		if got := csvQuote(c.in); got != c.want {
			t.Errorf("csvQuote(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	// A deviation containing %q-style quotes must survive a CSV parse:
	// quotes are doubled, not backslash-escaped.
	rep := Report{Scenarios: []Result{{Name: "x", Deviations: []string{`unknown figure "F"`}}}}
	csv := string(rep.CSV())
	if !strings.Contains(csv, `"unknown figure ""F"""`) {
		t.Errorf("deviation not RFC-4180 quoted:\n%s", csv)
	}
}

func TestCompare(t *testing.T) {
	base := Report{Scenarios: []Result{
		{Name: "a", WallNS: 100, WireBytes: 50, CtxSwitches: 10},
		{Name: "p99", Kind: KindCounter, LatP99NS: 7, Err: "x", Deviations: []string{"y"}},
		{Name: "gone", WallNS: 1},
	}}
	cur := Report{Scenarios: []Result{
		{Name: "a", WallNS: 150, WireBytes: 50, CtxSwitches: 8},
		// Only lat_p99_ns moves among the numbers; the text columns moving
		// beside it are no metric.
		{Name: "p99", Kind: KindHotspot, LatP99NS: 9, Err: "z", DNF: true},
		{Name: "new", WallNS: 1},
	}}
	deltas := Compare(base, cur, 0)
	var metrics []string
	for _, d := range deltas {
		metrics = append(metrics, d.Name+"/"+d.Metric)
	}
	joined := strings.Join(metrics, " ")
	if want := "a/wall_ns a/ctx_switches p99/lat_p99_ns new/missing-in-baseline gone/missing-in-report"; joined != want {
		t.Errorf("deltas %s, want %s", joined, want)
	}
	for _, want := range []string{"a/wall_ns", "a/ctx_switches", "new/missing-in-baseline", "gone/missing-in-report"} {
		if !strings.Contains(joined, want) {
			t.Errorf("deltas %v missing %s", metrics, want)
		}
	}
	for _, d := range deltas {
		if d.Metric == "wall_ns" && d.String() != "a wall_ns: 100 -> 150 (x1.500)" {
			t.Errorf("wall delta = %s, want a 1.5 ratio", d)
		}
		if d.Metric == "wire_bytes" {
			t.Error("unchanged metric reported")
		}
	}
	// Within tolerance: the 1.5x wall change and the 0.8x switch count
	// are suppressed at 60%.
	if ds := Compare(base, cur, 0.6); len(ds) != 2 {
		t.Errorf("tolerant compare = %v, want only the missing pair", ds)
	}
}

// TestColumnsAreResultFields is the guard behind "Result declares the
// columns": the CSV header is every Result field's json name, in field
// order, but the two per-trunk slices, and Compare reports a change in
// every numeric field. A field the column walk skips fails here.
func TestColumnsAreResultFields(t *testing.T) {
	base, cur := Result{Name: "r"}, Result{Name: "r"}
	v := reflect.ValueOf(&cur).Elem()
	var names, numeric []string
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if name != "trunk_util" && name != "trunk_frames" {
			names = append(names, name)
		}
		switch f := v.Field(i); {
		case f.CanInt():
			f.SetInt(int64(i + 1))
		case f.CanUint():
			f.SetUint(uint64(i + 1))
		case f.CanFloat():
			f.SetFloat(float64(i) + 0.5)
		default:
			continue
		}
		numeric = append(numeric, name)
	}
	header, _, _ := strings.Cut(string(Report{Scenarios: []Result{cur}}.CSV()), "\n")
	if want := strings.Join(names, ","); header != want {
		t.Errorf("CSV header\n%s\nwant Result's fields\n%s", header, want)
	}
	var moved []string
	for _, d := range Compare(Report{Scenarios: []Result{base}}, Report{Scenarios: []Result{cur}}, 0) {
		moved = append(moved, d.Metric)
	}
	if !reflect.DeepEqual(moved, numeric) {
		t.Errorf("Compare reports %v, want every numeric field %v", moved, numeric)
	}
}

// TestEveryKindFillsTheFullRow holds each row of the determinism grid,
// which has a cell of every kind, to the full report row: the world's
// events, memory and memory per host are on it, and the fanout row's
// CPU is host 0's, its writer's, whole.
func TestEveryKindFillsTheFullRow(t *testing.T) {
	scs := detGrid(smokeSeed)
	rep, _ := pooledSmoke(0, 0)
	seen := map[Kind]bool{}
	for i, r := range rep.Scenarios {
		seen[r.Kind] = true
		if r.Events == 0 || r.MemBytes == 0 {
			t.Errorf("%s: events %d, mem_bytes %d; want both", r.Name, r.Events, r.MemBytes)
		}
		if r.BytesPerHost <= 0 || r.BytesPerHost > float64(r.MemBytes)/2 {
			t.Errorf("%s: bytes_per_host %v with mem_bytes %d over at least two hosts", r.Name, r.BytesPerHost, r.MemBytes)
		}
		if r.Kind != KindFanout {
			continue
		}
		s := scs[i]
		opts, err := s.cluster()
		var wl workload.Workload
		if err == nil {
			wl, err = kinds[s.Kind].workload(s, opts)
		}
		var wr workload.Report
		if err == nil {
			wr, err = opts.Run(wl)
		}
		if err != nil {
			t.Fatal(err)
		}
		if cpu := time.Duration(r.UserNS + r.SysNS + r.ServerNS); cpu == 0 || cpu != wr.Host0.Total() {
			t.Errorf("%s: user+sys+server %v, host 0 used %v", r.Name, cpu, wr.Host0.Total())
		}
	}
	for k := range kinds {
		if !seen[k] {
			t.Errorf("the grid has no %s cell", k)
		}
	}
}

// TestCounterRowGatesOrphans: the orphan gate holds on the counter's row
// form too. Host 0 owns the counter page and crashes for good with
// claiming off, so the page ends ownerless and the row must say so.
func TestCounterRowGatesOrphans(t *testing.T) {
	r := Scenario{Name: "counter-crash-owner", Kind: KindCounter, Protocol: protocols.P2ShortPage,
		Target: 32, Seed: 1, Faults: "crash@5ms:h0", MayDNF: true}.Run()
	want := "1 page(s) still orphaned at end of run"
	if r.Orphaned != 1 || len(r.Deviations) != 1 || r.Deviations[0] != want {
		t.Errorf("orphaned %d, deviations %q; want 1 and %q", r.Orphaned, r.Deviations, want)
	}
}

// TestReportSummary: one line per cell, whose status says why a cell
// failed, with an error ahead of DNF ahead of band deviations.
func TestReportSummary(t *testing.T) {
	r := Report{Grid: "g", Scenarios: []Result{
		{Name: "g/ok", WallNS: int64(time.Millisecond), Ops: 4},
		{Name: "g/err", Err: "boom", DNF: true},
		{Name: "g/dnf", DNF: true, Deviations: []string{"x"}},
		{Name: "g/band", Deviations: []string{"x", "y"}},
	}}
	lines := strings.Split(strings.TrimSuffix(r.Summary(), "\n"), "\n")
	want := []string{"grid g: 4 scenarios", "wall=1ms", "ERR boom", "DNF", "2 band deviation(s)"}
	if len(lines) != len(want) {
		t.Fatalf("summary has %d lines, want %d:\n%s", len(lines), len(want), r.Summary())
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) || (i == 1 && !strings.HasSuffix(lines[i], " ok")) {
			t.Errorf("summary line %d = %q, want it to contain %q", i, lines[i], w)
		}
	}
}

// TestOnlyNarrowsBaseline pins the -only/-baseline fix: a run narrowed
// to one cell, compared with a full report narrowed the same way, has
// no deltas; against the full report every other cell read as missing.
func TestOnlyNarrowsBaseline(t *testing.T) {
	full := Report{Grid: "g", Scenarios: []Result{
		{Name: "g/hotspot", WallNS: 1}, {Name: "g/barrier", WallNS: 2}, {Name: "g/hotspot-kernel", WallNS: 3},
	}}
	narrowed := Report{Grid: "g", Scenarios: []Result{full.Scenarios[0], full.Scenarios[2]}}
	if got := full.Only("hotspot"); !reflect.DeepEqual(got, narrowed) {
		t.Errorf("Only(hotspot) = %+v, want %+v", got, narrowed)
	}
	if ds := Compare(full.Only("hotspot"), narrowed, 0); len(ds) != 0 {
		t.Errorf("narrowed baseline vs narrowed run: %v, want no deltas", ds)
	}
	if ds := Compare(full, narrowed, 0); len(ds) != 1 || ds[0].Metric != "missing-in-report" {
		t.Errorf("full baseline vs narrowed run: %v, want the one missing cell", ds)
	}
	if got := full.Only(""); !reflect.DeepEqual(got, full) {
		t.Errorf("Only(\"\") = %+v, want the report unchanged", got)
	}
}

func TestFigureScenariosBandCheckedAtPaperScale(t *testing.T) {
	full := FigureScenarios(Options{Target: 1024})
	banded := 0
	for _, s := range full {
		if s.Figure != "" {
			banded++
		}
	}
	if banded != 4 {
		t.Errorf("%d banded figures, want 4 (Figs 4, 5, 8, 9)", banded)
	}
}

// TestPaperAgreement is the reproduction's contract: every documented
// figure cell must land inside its agreement band at full paper scale.
// It runs the band-carrying figure scenarios as the sweep does and
// names the exact cell and ratio of any deviation; every figure the
// analysis package bands must be carried by one of them.
func TestPaperAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale paper runs")
	}
	unchecked := map[string]bool{}
	for _, f := range analysis.Figures() {
		unchecked[f.Name] = true
	}
	for _, sc := range FigureScenarios(Options{Target: 1024, Seed: 1}) {
		if sc.Figure == "" {
			continue
		}
		delete(unchecked, sc.Figure)
		t.Run(sc.Figure, func(t *testing.T) {
			r := sc.Run()
			if r.Err != "" || r.DNF {
				t.Fatalf("%s: err %q, dnf %v", sc.Name, r.Err, r.DNF)
			}
			for _, d := range r.Deviations {
				t.Error(d)
			}
		})
	}
	for name := range unchecked {
		t.Errorf("no figure scenario carries the bands of %s", name)
	}
}
