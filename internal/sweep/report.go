package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
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

// column is one of the report's fixed columns: a Result field, by its
// json name and index.
type column struct {
	name  string
	field int
}

// columns are Result's fields in declaration order, less the per-trunk
// slices, which CSV appends as column pairs: the CSV report's fixed
// columns and the fields Compare reads.
var columns = func() (cols []column) {
	t := reflect.TypeOf(Result{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() != reflect.String {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		cols = append(cols, column{name, i})
	}
	return cols
}()

// csvCell renders a field's value as a CSV cell: numbers in Go's
// shortest form, strings quoted as needed, a string list joined by
// "; " and quoted.
func csvCell(v reflect.Value) string {
	switch {
	case v.CanInt():
		return strconv.FormatInt(v.Int(), 10)
	case v.CanUint():
		return strconv.FormatUint(v.Uint(), 10)
	case v.CanFloat():
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case v.Kind() == reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case v.Kind() == reflect.String:
		return csvQuote(v.String())
	}
	return csvQuote(strings.Join(v.Interface().([]string), "; "))
}

// number is a numeric field's value as a float, and whether the field
// is numeric: the fields Compare gates.
func number(v reflect.Value) (float64, bool) {
	switch {
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanUint():
		return float64(v.Uint()), true
	case v.CanFloat():
		return v.Float(), true
	}
	return 0, false
}

// CSV renders the report as one header row plus one row per scenario:
// a column per Result field, under its json name, in field order. When
// any scenario carries per-trunk measurements, trunk_util_i and
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
	for i, c := range columns {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(c.name)
	}
	for t := 0; t < trunks; t++ {
		fmt.Fprintf(&buf, ",trunk_util_%d,trunk_frames_%d", t, t)
	}
	buf.WriteByte('\n')
	for _, s := range r.Scenarios {
		v := reflect.ValueOf(s)
		for i, c := range columns {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(csvCell(v.Field(c.field)))
		}
		for t := 0; t < trunks; t++ {
			buf.WriteByte(',')
			if t < len(s.TrunkUtil) {
				buf.WriteString(strconv.FormatFloat(s.TrunkUtil[t], 'g', -1, 64))
			}
			buf.WriteByte(',')
			if t < len(s.TrunkFrames) {
				buf.WriteString(strconv.FormatUint(s.TrunkFrames[t], 10))
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
// matching scenarios by name. Its metrics are Result's numeric fields,
// seed included, by their json names in field order. Only metrics whose
// relative change exceeds tolerance are returned (tolerance 0 reports
// every changed metric). A scenario present in only one report is
// reported with Metric "missing-in-baseline" or "missing-in-report" and
// a zero Ratio.
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
		bs, ns := reflect.ValueOf(b), reflect.ValueOf(s)
		for _, c := range columns {
			bv, numeric := number(bs.Field(c.field))
			nv, _ := number(ns.Field(c.field))
			if !numeric || bv == nv {
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
