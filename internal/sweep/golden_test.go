package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/full.json and full.csv from the current encoders")

// fullReport has every Result field non-zero in its first cell — four
// trunks of per-trunk columns, an err, and deviations carrying a comma
// and a quote — plus a sparse second cell with fewer trunks, so the
// encoders' omitempty rules, quoting and trunk-column padding are all on
// the page.
func fullReport() Report {
	return Report{Grid: "golden", Scenarios: []Result{
		{
			Name: "golden/full, \"quoted\"", Kind: KindStationary, Seed: 7,
			Err: "boom, with a comma", DNF: true,
			WallNS: 1_234_567_890, Ops: 4096, OpsPerSec: 3317.76, LossWin: 1.5, Retries: 8,
			UserNS: 11, SysNS: 22, ServerNS: 33, CtxSwitches: 44,
			WireBytes: 55_000, Packets: 66, NetBytesPerSec: 44_550.5,
			LatMeanNS: 101, LatP50NS: 102, LatP90NS: 103, LatP99NS: 104,
			LatP999NS: 105, LatMaxNS: 106, LatCount: 107,
			Events:   9_999_999,
			MemBytes: 1 << 20, BytesPerHost: 16384.25, RingHighWater: 17,
			FanoutFrames: 201, LinkOverflows: 202, LinkMaxQueued: 203,
			BridgeForwarded: 301, BridgeMaxQueued: 303, CrossTrunkStale: 304,
			TrunkUtil:       []float64{0.5, 0.25, 0.125, 1e-9},
			TrunkFrames:     []uint64{401, 402, 403, 404},
			RedundantServes: 501, RedundantSuppressed: 502, LateDrops: 503,
			OrphanRecoveries: 601, GhostDrops: 602,
			UnavailNS: 604, RejoinNS: 605, PartitionDrops: 606, Orphaned: 607,
			Deviations: []string{`wall 3.1s outside [1s, 2s]`, `unknown figure "F"`},
		},
		{
			Name: "golden/sparse", Kind: KindCounter, Seed: 1,
			WallNS: 10, Ops: 2, OpsPerSec: 2e8,
			TrunkUtil: []float64{0.75, 0}, TrunkFrames: []uint64{9, 0},
		},
	}}
}

// TestReportGolden pins both report encoders byte for byte. A Result
// field added without a value here fails the non-zero check, so the
// golden cannot silently stop covering a column.
func TestReportGolden(t *testing.T) {
	rep := fullReport()
	v := reflect.ValueOf(rep.Scenarios[0])
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullReport leaves Result.%s zero", v.Type().Field(i).Name)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"full.json": js, "full.csv": rep.CSV()} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden (go test ./internal/sweep -run TestReportGolden -update rewrites it):\n%s", name, got)
		}
	}
}
