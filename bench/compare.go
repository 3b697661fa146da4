package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The four verdicts of -compare, per (end-to-end metric, workload).
const (
	verdictOK          = "ok"
	verdictRegressed   = "regressed"
	verdictUnresolved  = "unresolved"
	verdictWorkChanged = "work-changed"
)

// missing marks a workload or metric that only one of the two files has:
// not a verdict, since nothing was compared, but never silent.
const missing = "missing"

// verdict judges one metric of one workload, b against its parent a.
// Worsening is a share of the parent's median. When either side's
// quartile spread is wider than the bound and the two sides' runs
// overlap, the runs cannot tell a regression from noise: unresolved,
// not unchanged.
func verdict(m e2eMetric, a, b value) (string, float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	worse := (b.Median - a.Median) / a.Median
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if m.Better == "higher" {
		worse = -worse
	}
	spread := a.spread()
	if s := b.spread(); s > spread {
		spread = s
	}
	switch {
	case spread > m.Bound && overlap:
		return verdictUnresolved, worse
	case worse > m.Bound:
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per (end-to-end metric, workload) of
// result file b against its parent a, and returns non-zero when any row
// regressed or could not be compared because one file lacks it (a result
// taken with -workload or -layers-only against a full one). A workload
// whose events_total differs did different work: its rows say so and are
// not compared.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readResult(pathA)
	if err == nil {
		var b result
		if b, err = readResult(pathB); err == nil {
			return compareResults(a, b, w)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareResults(a, b result, w io.Writer) int {
	regressed, absent := 0, 0
	has := func(present bool) string {
		if present {
			return "has it"
		}
		return "lacks it"
	}
	fmt.Fprintf(w, "%-16s %-24s %-13s %14s %14s %8s %8s\n", "workload", "metric", "verdict", "parent", "change", "worse", "bound")
	for _, name := range allWorkloads {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil && wb == nil {
			continue
		}
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-16s %-24s %-13s parent %s, change %s\n", name, "*", missing, has(wa != nil), has(wb != nil))
			absent++
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-16s %-24s %-13s failed cell runs: parent %d, change %d\n", name, "fail_share", verdictRegressed, wa.Failed, wb.Failed)
			regressed++
		}
		for _, m := range e2eMetrics {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA && !okB {
				continue
			}
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-24s %-13s parent %s, change %s\n", name, m.Name, missing, has(okA), has(okB))
				absent++
				continue
			}
			v, worse := verdict(m, va, vb)
			if wa.EventsTotal != wb.EventsTotal {
				v = verdictWorkChanged
			}
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-24s %-13s %14.6g %14.6g %+7.1f%% %7.1f%%\n", name, m.Name, v, va.Median, vb.Median, 100*worse, 100*m.Bound)
		}
		if wa.EventsTotal != wb.EventsTotal {
			fmt.Fprintf(w, "%-16s events_total %d -> %d: work changed, speeds not comparable\n", name, wa.EventsTotal, wb.EventsTotal)
		} else if wa.Digest != wb.Digest {
			fmt.Fprintf(w, "%-16s report digest %.12s -> %.12s: simulated results changed\n", name, wa.Digest, wb.Digest)
		}
	}
	if regressed > 0 || absent > 0 {
		return 1
	}
	return 0
}
