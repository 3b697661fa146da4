package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the
// index of the enclosing span, -1 at the root; all spans of one tracer
// belong to one workload.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int
}

// tracer records spans in memory; they are written out when the run
// ends. A nil tracer records nothing, so untraced passes pay one nil
// check per call site.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     int // innermost open span, -1 when none
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), open: -1}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: t.open})
	t.open = i
	return func() {
		t.spans[i].End = time.Since(t.epoch)
		t.open = t.spans[i].Parent
	}
}

// selfTime is each span name's duration minus what its children cover.
func (t *tracer) selfTime() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// writeChrome writes the spans in Chrome trace-event format (open it in
// chrome://tracing or https://ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": t.workload},
		}
	}
	b, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// bucketOf folds one profile symbol into the layer that owns it.
// Scenario.Run is opaque from outside, so self time by layer inside it
// comes from where the CPU samples' leaf functions live.
func bucketOf(symbol string) string {
	if rest, ok := strings.CutPrefix(symbol, "mether/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		switch pkg {
		case "sim", "host", "medium", "ethernet", "fabric", "proto", "core", "vm":
			return pkg
		case "workload", "protocols":
			return "app"
		}
		return "other"
	}
	if strings.HasPrefix(symbol, "mether.") {
		return "app"
	}
	if name, ok := strings.CutPrefix(symbol, "runtime."); ok {
		return runtimeBucket(name)
	}
	for _, p := range []string{"runtime/", "internal/runtime/", "internal/abi.", "internal/cpu.", "internal/bytealg."} {
		if strings.HasPrefix(symbol, p) {
			return "runtime_other"
		}
	}
	return "other"
}

// runtimeRules sort package runtime's functions by a word in their name;
// the first rule that matches wins. The hand-off between the kernel and
// the simulated processes is channel operations, parking and the
// scheduler loop with its locks and timers: runtime_sched. Marking,
// sweeping and scavenging are runtime_gc. Allocation, maps, copying and
// comparison helpers are ordinary work done on behalf of the caller:
// runtime_other, as is whatever no rule names. The split is by leaf
// function, so it is approximate by design: an atomic add inside the
// scheduler counts as runtime_other.
var runtimeRules = []struct {
	bucket string
	words  []string
}{
	{"runtime_other", []string{"malloc", "memmove", "memclr", "memequal", "memhash", "strhash", "aeshash", "map",
		"inter", "eface", "newobject", "newarray", "growslice", "makeslice", "duff", "typedmemmove", "stack"}},
	{"runtime_gc", []string{"gc", "GC", "scan", "grey", "mark", "sweep", "Sweep", "scaveng", "wbBuf", "findObject"}},
	{"runtime_sched", []string{"chan", "send", "recv", "park", "ready", "sched", "Sched", "findRunnable", "execute",
		"gogo", "mcall", "casgstatus", "guintptr", "futex", "note", "wakep", "startm", "stopm", "mPark", "runq",
		"steal", "pinning", "udog", "sleep", "yield", "pidle", "injectglist", "netpoll", "epoll", "timer", "nanotime",
		"selectgo", "lock", "Lock", "goexit", "newproc", "gfget", "gfput", "gdestroy", "dropg", "mstart",
		"handoffp", "releasep", "acquirep", "checkdead", "reempt"}},
}

func runtimeBucket(name string) string {
	for _, r := range runtimeRules {
		for _, w := range r.words {
			if strings.Contains(name, w) {
				return r.bucket
			}
		}
	}
	return "runtime_other"
}

// foldProfile shells out to `go tool pprof -top` (so go.mod stays free
// of dependencies) and returns each bucket's share of the samples.
func foldProfile(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", "-unit=ms", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %v: %s", profile, err, stderr.String())
	}
	return foldTop(string(out))
}

// foldTop folds the table `pprof -top -unit=ms` prints: after a header
// line starting with "flat", each row is flat, flat%, sum%, cum, cum%
// and the symbol.
func foldTop(top string) (map[string]float64, error) {
	shares := make(map[string]float64)
	var total float64
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(top))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %v", sc.Text(), err)
		}
		shares[bucketOf(f[5])] += flat
		total += flat
	}
	// A pass shorter than the profiler's 10 ms tick has no samples and
	// reports 0 everywhere; only -scale small is that short.
	if total > 0 {
		for _, b := range profileBuckets {
			shares[b] /= total
		}
	}
	return shares, nil
}
