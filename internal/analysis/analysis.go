// Package analysis encodes the paper's reported evaluation numbers as
// typed data and compares measured reports against them. It is what
// turns "the reproduction matches the paper" from prose into assertions:
// every figure cell carries the paper's value and an agreement band, and
// a test fails if calibration drift pushes a measurement outside its
// band. EXPERIMENTS.md documents the bands; this package enforces them.
package analysis

import (
	"fmt"
	"time"

	"mether/internal/protocols"
	"mether/internal/workload"
)

// Band is an acceptable measured/paper ratio range for one metric cell.
// Bands are deliberately asymmetric where EXPERIMENTS.md documents a
// known deviation (e.g. blocking protocols complete 2-4x fast).
type Band struct {
	Lo, Hi float64
}

// Contains reports whether ratio lies inside the band.
func (b Band) Contains(ratio float64) bool {
	return ratio >= b.Lo && ratio <= b.Hi
}

// Cell is one figure-row entry: the paper's value, how to extract the
// measured value, and the agreement band.
type Cell struct {
	Metric string
	Paper  float64 // in the unit returned by Get
	Get    func(workload.Report) float64
	Band   Band
}

// Figure couples a protocol run with its paper cells.
type Figure struct {
	Name     string
	Protocol protocols.Protocol
	Cells    []Cell
}

// seconds converts a duration metric to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// Figures returns the paper's Figures 4, 5, 8 and 9 with the agreement
// bands EXPERIMENTS.md documents. Figures 6 and 7 are asserted
// separately (degeneracy is about orderings, not cell ratios).
func Figures() []Figure {
	wall := func(r workload.Report) float64 { return seconds(r.Wall) }
	user := func(r workload.Report) float64 { return seconds(r.Host0.User) }
	sys := func(r workload.Report) float64 { return seconds(r.Host0.System()) }
	lat := func(r workload.Report) float64 { return seconds(r.LatMean) }
	lossWin := workload.Report.LossWin
	ctx := workload.Report.CtxPerOp

	return []Figure{
		{
			Name:     "Figure 4 (full page)",
			Protocol: protocols.P1FullPage,
			Cells: []Cell{
				{"wall s", 128, wall, Band{0.5, 1.5}},
				{"user s", 10, user, Band{0.5, 2}},
				{"sys s", 30, sys, Band{0.5, 2}},
				{"latency s", 0.120, lat, Band{0.5, 2}},
				{"loss/win", 500, lossWin, Band{0.4, 2.5}},
				{"ctx/add", 4, ctx, Band{0.5, 2}},
			},
		},
		{
			Name:     "Figure 5 (short page)",
			Protocol: protocols.P2ShortPage,
			Cells: []Cell{
				{"wall s", 68, wall, Band{0.25, 1.5}}, // documented: blocking runs fast
				{"user s", 3, user, Band{0.5, 4}},
				{"sys s", 17, sys, Band{0.3, 2}},
				{"latency s", 0.068, lat, Band{0.25, 1.5}},
				{"loss/win", 134, lossWin, Band{0.5, 4}},
				{"ctx/add", 4, ctx, Band{0.5, 2}},
			},
		},
		{
			Name:     "Figure 8 (data driven, one page)",
			Protocol: protocols.P4DataDriven,
			Cells: []Cell{
				{"wall s", 68, wall, Band{0.5, 2}},
				{"sys s", 50, sys, Band{0.2, 1.5}},
				{"latency s", 0.065, lat, Band{0.25, 1.5}},
				{"loss/win", 400, lossWin, Band{0.5, 5}}, // documented overshoot
				{"ctx/add", 10, ctx, Band{0.5, 1.5}},
			},
		},
		{
			Name:     "Figure 9 (final protocol)",
			Protocol: protocols.P5Final,
			Cells: []Cell{
				{"wall s", 57, wall, Band{0.15, 1.5}}, // documented: 4x fast
				{"user s", 0.7, user, Band{0.05, 1.5}},
				{"sys s", 6, sys, Band{0.5, 2.5}},
				{"latency s", 0.020, lat, Band{0.5, 1.5}},
				{"loss/win", 3, lossWin, Band{0.3, 2}},
				{"ctx/add", 5, ctx, Band{0.5, 1.5}},
			},
		},
	}
}

// Deviation describes one out-of-band cell.
type Deviation struct {
	Figure string
	Metric string
	Paper  float64
	Got    float64
	Ratio  float64
	Band   Band
}

func (d Deviation) String() string {
	return fmt.Sprintf("%s %s: measured %.4g vs paper %.4g (ratio %.2f outside [%.2f, %.2f])",
		d.Figure, d.Metric, d.Got, d.Paper, d.Ratio, d.Band.Lo, d.Band.Hi)
}

// CheckReport compares a figure run's report against the figure's
// bands; the sweep engine calls it on every band-carrying figure cell.
func CheckReport(f Figure, r workload.Report) []Deviation {
	var out []Deviation
	for _, c := range f.Cells {
		got := c.Get(r)
		if c.Paper == 0 {
			continue
		}
		ratio := got / c.Paper
		if !c.Band.Contains(ratio) {
			out = append(out, Deviation{
				Figure: f.Name, Metric: c.Metric,
				Paper: c.Paper, Got: got, Ratio: ratio, Band: c.Band,
			})
		}
	}
	return out
}
