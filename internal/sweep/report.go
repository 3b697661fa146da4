package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Report is a sweep's deterministic output: the grid name and one
// Result per scenario, in grid order. It contains no real-time or
// environment-dependent values, so equal grids and seeds marshal to
// byte-identical JSON and CSV on any machine.
type Report struct {
	Grid      string   `json:"grid"`
	Scenarios []Result `json:"scenarios"`
}

// JSON renders the report as indented JSON with a trailing newline.
func (r Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// csvColumns is the CSV report's one declaration of its fixed columns:
// each header and how a result renders under it, in file order, so the
// header and every row have the same arity by construction. A new
// Result field becomes a column by adding its line here.
var csvColumns = []struct {
	name string
	cell func(*Result) string
}{
	{"name", func(r *Result) string { return csvQuote(r.Name) }},
	{"kind", func(r *Result) string { return string(r.Kind) }},
	{"seed", func(r *Result) string { return fmtInt(r.Seed) }},
	{"err", func(r *Result) string { return csvQuote(r.Err) }},
	{"dnf", func(r *Result) string { return strconv.FormatBool(r.DNF) }},
	{"wall_ns", func(r *Result) string { return fmtInt(r.WallNS) }},
	{"ops", func(r *Result) string { return fmtUint(r.Ops) }},
	{"ops_per_sec", func(r *Result) string { return fmtFloat(r.OpsPerSec) }},
	{"loss_win", func(r *Result) string { return fmtFloat(r.LossWin) }},
	{"retries", func(r *Result) string { return fmtUint(r.Retries) }},
	{"user_ns", func(r *Result) string { return fmtInt(r.UserNS) }},
	{"sys_ns", func(r *Result) string { return fmtInt(r.SysNS) }},
	{"server_ns", func(r *Result) string { return fmtInt(r.ServerNS) }},
	{"ctx_switches", func(r *Result) string { return fmtUint(r.CtxSwitches) }},
	{"wire_bytes", func(r *Result) string { return fmtUint(r.WireBytes) }},
	{"packets", func(r *Result) string { return fmtUint(r.Packets) }},
	{"net_bytes_per_sec", func(r *Result) string { return fmtFloat(r.NetBytesPerSec) }},
	{"lat_mean_ns", func(r *Result) string { return fmtInt(r.LatMeanNS) }},
	{"lat_p50_ns", func(r *Result) string { return fmtInt(r.LatP50NS) }},
	{"lat_p90_ns", func(r *Result) string { return fmtInt(r.LatP90NS) }},
	{"lat_p99_ns", func(r *Result) string { return fmtInt(r.LatP99NS) }},
	{"lat_p999_ns", func(r *Result) string { return fmtInt(r.LatP999NS) }},
	{"lat_max_ns", func(r *Result) string { return fmtInt(r.LatMaxNS) }},
	{"lat_count", func(r *Result) string { return fmtUint(r.LatCount) }},
	{"events", func(r *Result) string { return fmtUint(r.Events) }},
	{"mem_bytes", func(r *Result) string { return fmtUint(r.MemBytes) }},
	{"bytes_per_host", func(r *Result) string { return fmtFloat(r.BytesPerHost) }},
	{"ring_high_water", func(r *Result) string { return strconv.Itoa(r.RingHighWater) }},
	{"bridge_forwarded", func(r *Result) string { return fmtUint(r.BridgeForwarded) }},
	{"bridge_port_drops", func(r *Result) string { return fmtUint(r.BridgePortDrops) }},
	{"bridge_max_queued", func(r *Result) string { return strconv.Itoa(r.BridgeMaxQueued) }},
	{"cross_trunk_stale", func(r *Result) string { return fmtUint(r.CrossTrunkStale) }},
	{"fanout_frames", func(r *Result) string { return fmtUint(r.FanoutFrames) }},
	{"link_overflows", func(r *Result) string { return fmtUint(r.LinkOverflows) }},
	{"link_max_queued", func(r *Result) string { return strconv.Itoa(r.LinkMaxQueued) }},
	{"redundant_serves", func(r *Result) string { return fmtUint(r.RedundantServes) }},
	{"redundant_suppressed", func(r *Result) string { return fmtUint(r.RedundantSuppressed) }},
	{"late_drops", func(r *Result) string { return fmtUint(r.LateDrops) }},
	{"orphan_recoveries", func(r *Result) string { return fmtUint(r.OrphanRecoveries) }},
	{"ghost_drops", func(r *Result) string { return fmtUint(r.GhostDrops) }},
	{"migrated_pages", func(r *Result) string { return fmtUint(r.MigratedPages) }},
	{"unavail_ns", func(r *Result) string { return fmtInt(r.UnavailNS) }},
	{"rejoin_ns", func(r *Result) string { return fmtInt(r.RejoinNS) }},
	{"partition_drops", func(r *Result) string { return fmtUint(r.PartitionDrops) }},
	{"orphaned", func(r *Result) string { return strconv.Itoa(r.Orphaned) }},
	{"deviations", func(r *Result) string { return csvQuote(strings.Join(r.Deviations, "; ")) }},
}

func fmtInt(v int64) string     { return strconv.FormatInt(v, 10) }
func fmtUint(v uint64) string   { return strconv.FormatUint(v, 10) }
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSV renders the report as one header row plus one row per scenario.
// When any scenario carries per-trunk measurements, trunk_util_i and
// trunk_frames_i column pairs are appended for the widest trunk count
// in the report (cells with fewer trunks leave the excess blank); a
// report with no multi-trunk cells keeps the classic column set, and
// its exact bytes, unchanged.
func (r Report) CSV() []byte {
	trunks := 0
	for _, s := range r.Scenarios {
		if len(s.TrunkUtil) > trunks {
			trunks = len(s.TrunkUtil)
		}
	}
	var buf bytes.Buffer
	for i, c := range csvColumns {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(c.name)
	}
	for t := 0; t < trunks; t++ {
		fmt.Fprintf(&buf, ",trunk_util_%d,trunk_frames_%d", t, t)
	}
	buf.WriteByte('\n')
	for i := range r.Scenarios {
		s := &r.Scenarios[i]
		for i, c := range csvColumns {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(c.cell(s))
		}
		for t := 0; t < trunks; t++ {
			buf.WriteByte(',')
			if t < len(s.TrunkUtil) {
				buf.WriteString(fmtFloat(s.TrunkUtil[t]))
			}
			buf.WriteByte(',')
			if t < len(s.TrunkFrames) {
				buf.WriteString(fmtUint(s.TrunkFrames[t]))
			}
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// csvQuote quotes a field per RFC 4180 when it contains CSV
// metacharacters: wrapped in double quotes with inner quotes doubled.
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// ParseJSON restores a report written by JSON (baseline comparison).
func ParseJSON(b []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("sweep: bad baseline report: %w", err)
	}
	return r, nil
}

// Only returns the report narrowed to the scenarios whose name contains
// substr, in order: methersweep's -only selection applied to a saved
// baseline, so a run of one cell is compared with that cell of a full
// report instead of finding every other cell missing.
func (r Report) Only(substr string) Report {
	out := Report{Grid: r.Grid}
	for _, s := range r.Scenarios {
		if strings.Contains(s.Name, substr) {
			out.Scenarios = append(out.Scenarios, s)
		}
	}
	return out
}

// Delta is one metric's change against a baseline report.
type Delta struct {
	Name   string
	Metric string
	Base   float64
	New    float64
	Ratio  float64 // New / Base
}

func (d Delta) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (x%.3f)", d.Name, d.Metric, d.Base, d.New, d.Ratio)
}

// Compare reports per-scenario metric changes of r against a baseline,
// matching scenarios by name. Its metrics are the CSV report's numeric
// columns, in file order: a column whose cells parse as numbers on both
// sides. Only metrics whose relative change exceeds tolerance are
// returned (tolerance 0 reports every changed metric).
// Scenarios present in only one report are reported with Metric
// "missing" and a zero Ratio.
func Compare(baseline, r Report, tolerance float64) []Delta {
	base := make(map[string]Result, len(baseline.Scenarios))
	for _, s := range baseline.Scenarios {
		base[s.Name] = s
	}
	var out []Delta
	seen := make(map[string]bool, len(r.Scenarios))
	for _, s := range r.Scenarios {
		seen[s.Name] = true
		b, ok := base[s.Name]
		if !ok {
			out = append(out, Delta{Name: s.Name, Metric: "missing-in-baseline"})
			continue
		}
		for _, c := range csvColumns {
			bv, berr := strconv.ParseFloat(c.cell(&b), 64)
			nv, nerr := strconv.ParseFloat(c.cell(&s), 64)
			if berr != nil || nerr != nil || bv == nv {
				continue
			}
			ratio := 0.0
			if bv != 0 {
				ratio = nv / bv
			}
			rel := ratio - 1
			if rel < 0 {
				rel = -rel
			}
			if bv == 0 || rel > tolerance {
				out = append(out, Delta{Name: s.Name, Metric: c.name, Base: bv, New: nv, Ratio: ratio})
			}
		}
	}
	for _, s := range baseline.Scenarios {
		if !seen[s.Name] {
			out = append(out, Delta{Name: s.Name, Metric: "missing-in-report"})
		}
	}
	return out
}

// Summary renders a short human-readable table of the report (one line
// per scenario) for terminals; the machine formats are JSON and CSV.
func (r Report) Summary() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "grid %s: %d scenarios\n", r.Grid, len(r.Scenarios))
	for _, s := range r.Scenarios {
		status := "ok"
		switch {
		case s.Err != "":
			status = "ERR " + s.Err
		case s.DNF:
			status = "DNF"
		case len(s.Deviations) > 0:
			status = fmt.Sprintf("%d band deviation(s)", len(s.Deviations))
		}
		fmt.Fprintf(&buf, "  %-36s wall=%-10v ops=%-6d lat=%-10v wire=%-8d %s\n",
			s.Name, time.Duration(s.WallNS), s.Ops, time.Duration(s.LatMeanNS), s.WireBytes, status)
	}
	return buf.String()
}
