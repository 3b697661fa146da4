package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance records where a result file's numbers come from.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	Seconds    int    `json:"seconds"`
	Small      bool   `json:"small,omitempty"` // -scale small: not a measurement
	Time       string `json:"time"`
}

// workloadResult aggregates one workload's runs: every end-to-end value
// is the median over the fresh-process repetitions, with their quartiles.
type workloadResult struct {
	EventsTotal uint64           `json:"events_total"`
	LatCount    uint64           `json:"lat_count"`
	Digest      string           `json:"digest"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Failures    []string         `json:"failures,omitempty"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	samples     map[string][]float64
}

// result is the file the harness writes and -compare reads.
type result struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	// Layers holds the workload-independent per-layer metrics, measured
	// once per invocation.
	Layers map[string]value `json:"layers,omitempty"`
}

func gatherProvenance(o options) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: procs, NProc: runtime.NumCPU(),
		CPUModel: "unknown", Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Small: o.small,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	// Best effort: a source archive has no commit, a container no cpuinfo.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// child runs one run of one workload in a fresh process and returns the
// outcome from its detail line. A child that found failures exits
// non-zero but still reports; a child without a detail line is an error.
func child(exe string, o options, workload string, traced bool, extra ...string) (*outcome, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.small {
		args = append(args, "-scale", "small")
	}
	args = append(args, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if js, ok := strings.CutPrefix(sc.Text(), "detail "); ok {
			var out outcome
			if err := json.Unmarshal([]byte(js), &out); err != nil {
				return nil, fmt.Errorf("%s %v: detail line: %w", exe, args, err)
			}
			return &out, nil
		}
	}
	return nil, fmt.Errorf("%s %v: no result (%v)", exe, args, runErr)
}

func (r *workloadResult) add(out *outcome) {
	r.Attempted += out.Attempted
	r.Failed += out.Failed
	r.Failures = append(r.Failures, out.Failures...)
	switch {
	case r.Digest == "":
		r.Digest, r.EventsTotal, r.LatCount = out.Digest, out.EventsTotal, out.LatCount
	case out.Digest != "" && out.Digest != r.Digest:
		// The seed is the same, so the report must be: a repetition
		// that disagrees fails all its cell runs.
		r.Failed += out.Attempted - out.Failed
		r.Failures = append(r.Failures, fmt.Sprintf("report digest %.12s differs from an earlier repetition's %.12s", out.Digest, r.Digest))
	}
}

// harness is the full protocol. Each (workload, repetition) runs in a
// fresh child process, one at a time; repetitions are interleaved over
// the workloads and the order alternates, so a slow minute on a shared
// machine is spread over all of them. One traced child per workload
// follows; the first also runs the layer micro-drivers.
func harness(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	names := allWorkloads
	if o.workload != "" {
		names = []string{o.workload}
	}
	res := result{Provenance: gatherProvenance(o), Workloads: make(map[string]*workloadResult)}
	for _, n := range names {
		res.Workloads[n] = &workloadResult{samples: make(map[string][]float64)}
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	if !o.layersOnly {
		for rep := 0; rep < o.reps; rep++ {
			for i := range names {
				n := names[i]
				if rep%2 == 1 {
					n = names[len(names)-1-i]
				}
				out, err := child(exe, o, n, false)
				if err != nil {
					return fail(err)
				}
				r := res.Workloads[n]
				r.add(out)
				for m, v := range out.Metrics {
					r.samples[m] = append(r.samples[m], v.Value)
				}
				fmt.Fprintf(os.Stderr, "rep %d/%d %-16s wall_s %.3f\n", rep+1, o.reps, n, out.Metrics["wall_s"].Value)
			}
		}
		for _, r := range res.Workloads {
			r.EndToEnd = make(map[string]value)
			for _, m := range e2eMetrics {
				if s, ok := r.samples[m.Name]; ok {
					sum := summarize(s)
					r.EndToEnd[m.Name] = value{Value: sum.Median, Unit: m.Unit, summary: sum}
				}
			}
		}
	}

	switch {
	case o.layersOnly:
		out, err := child(exe, o, names[0], true, "-layers-only")
		if err != nil {
			return fail(err)
		}
		res.Layers = out.Metrics
		res.Workloads[names[0]].add(out)
	case !o.e2eOnly:
		for i, n := range names {
			var extra []string
			if i > 0 {
				extra = []string{"-no-drivers"}
			}
			out, err := child(exe, o, n, true, extra...)
			if err != nil {
				return fail(err)
			}
			r := res.Workloads[n]
			r.add(out)
			r.PerLayer = make(map[string]value)
			for m, v := range out.Metrics {
				if perWorkload(m) {
					r.PerLayer[m] = v
				} else {
					if res.Layers == nil {
						res.Layers = make(map[string]value)
					}
					res.Layers[m] = v
				}
			}
			fmt.Fprintf(os.Stderr, "traced   %-16s overhead %.1f %%\n", n, out.Metrics["trace_overhead_pct"].Value)
		}
	}

	failed := 0
	for _, n := range names {
		r := res.Workloads[n]
		printRows(os.Stdout, n, r.EventsTotal, r.EndToEnd)
		printRows(os.Stdout, n, r.EventsTotal, r.PerLayer)
		if r.Attempted > 0 {
			fmt.Printf("%-16s %-34s %14.6g %-6s failed=%d attempted=%d lat_count=%d digest=%.12s\n",
				n, "fail_share", float64(r.Failed)/float64(r.Attempted), "share", r.Failed, r.Attempted, r.LatCount, r.Digest)
		}
		for _, f := range r.Failures {
			fmt.Printf("FAIL %s: %s\n", n, f)
		}
		failed += r.Failed
	}
	printRows(os.Stdout, "layers", 0, res.Layers)
	fmt.Println("n counts fresh-process repetitions: too few for any percentile beyond the quartiles.")

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return fail(err)
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	if failed > 0 {
		return 1
	}
	return 0
}
