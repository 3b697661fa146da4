package analysis

import (
	"testing"

	"mether/internal/protocols"
	"mether/internal/workload"
)

func TestBandContains(t *testing.T) {
	b := Band{0.5, 2}
	for _, tc := range []struct {
		ratio float64
		want  bool
	}{
		{0.49, false}, {0.5, true}, {1, true}, {2, true}, {2.01, false},
	} {
		if got := b.Contains(tc.ratio); got != tc.want {
			t.Errorf("Contains(%f) = %v, want %v", tc.ratio, got, tc.want)
		}
	}
}

func TestCheckReportFlagsOutliers(t *testing.T) {
	f := Figure{
		Name:     "synthetic",
		Protocol: protocols.P5Final,
		Cells: []Cell{
			{"loss/win", 10, workload.Report.LossWin, Band{0.9, 1.1}},
		},
	}
	r := workload.Report{Tally: workload.Tally{Ops: 1, Losses: 30}} // ratio 3: far out of band
	devs := CheckReport(f, r)
	if len(devs) != 1 {
		t.Fatalf("deviations = %d, want 1", len(devs))
	}
	if devs[0].Ratio != 3 {
		t.Errorf("ratio = %f, want 3", devs[0].Ratio)
	}
	if devs[0].String() == "" {
		t.Error("empty deviation rendering")
	}
}

func TestZeroPaperCellSkipped(t *testing.T) {
	f := Figure{
		Name:     "synthetic",
		Protocol: protocols.P5Final,
		Cells: []Cell{
			{"zero", 0, func(workload.Report) float64 { return 5 }, Band{0.9, 1.1}},
		},
	}
	if devs := CheckReport(f, workload.Report{}); len(devs) != 0 {
		t.Errorf("zero-paper cell produced deviations: %v", devs)
	}
}

func TestFiguresCoverFourProtocols(t *testing.T) {
	seen := map[protocols.Protocol]bool{}
	for _, f := range Figures() {
		seen[f.Protocol] = true
		if len(f.Cells) < 5 {
			t.Errorf("%s has only %d cells", f.Name, len(f.Cells))
		}
	}
	for _, p := range []protocols.Protocol{
		protocols.P1FullPage, protocols.P2ShortPage,
		protocols.P4DataDriven, protocols.P5Final,
	} {
		if !seen[p] {
			t.Errorf("no figure for %v", p)
		}
	}
}
