package workload

import (
	"testing"

	"mether/pipe"
)

func TestHotspotCompletes(t *testing.T) {
	r := runConfig(t, Hotspot, HotspotConfig{Hosts: 3, Iters: 8, ShortPage: true, Options: Options{Seed: 1}})
	if r.DNF {
		t.Fatal("hotspot did not finish")
	}
	if r.Ops != 3*8 {
		t.Errorf("updates = %d, want 24", r.Ops)
	}
	if r.Wall <= 0 || r.Net.WireBytes == 0 || r.LatCount == 0 {
		t.Errorf("implausible report: %+v", r)
	}
}

func TestHotspotShortMovesFewerBytes(t *testing.T) {
	short := runConfig(t, Hotspot, HotspotConfig{Hosts: 2, Iters: 8, ShortPage: true, Options: Options{Seed: 1}})
	full := runConfig(t, Hotspot, HotspotConfig{Hosts: 2, Iters: 8, ShortPage: false, Options: Options{Seed: 1}})
	if short.Net.WireBytes >= full.Net.WireBytes {
		t.Errorf("short page moved %d wire bytes, full %d; want short < full", short.Net.WireBytes, full.Net.WireBytes)
	}
}

func TestHotspotRejectsBadConfig(t *testing.T) {
	if _, err := Hotspot(HotspotConfig{Hosts: 9, ShortPage: true}); err == nil {
		t.Error("9-host short hotspot should be rejected (8 word slots)")
	}
	if _, err := Hotspot(HotspotConfig{Hosts: 1, Iters: 1}); err == nil {
		t.Error("1-host hotspot should be rejected")
	}
}

func TestBarrierCompletes(t *testing.T) {
	r := runConfig(t, Barrier, BarrierConfig{Hosts: 3, Phases: 4, Options: Options{Seed: 1}})
	if r.DNF {
		t.Fatal("barrier did not finish")
	}
	// One wait sample per host per phase.
	if r.LatCount != 3*4 {
		t.Errorf("barrier wait samples = %d, want 12", r.LatCount)
	}
	if r.Wall < 4*barrierWork/2 {
		t.Errorf("wall %v implausibly short for 4 phases of ~%v work", r.Wall, barrierWork)
	}
}

func TestPipelineDeliversInOrder(t *testing.T) {
	c := PipelineConfig{Stages: 3, Messages: 6, Size: 8, Options: Options{Seed: 1}}
	wl, err := Pipeline(c)
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := c.RunOpen(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	if r.DNF || r.Ops != 6 {
		t.Fatalf("delivered %d/6 (DNF=%v)", r.Ops, r.DNF)
	}
	if r.LatCount != 6 || r.LatMean <= 0 {
		t.Errorf("latency histogram: count=%d mean=%v", r.LatCount, r.LatMean)
	}
	if r.Wall <= 0 || r.Wall > w.Now() {
		t.Errorf("wall %v, quiet at %v", r.Wall, w.Now())
	}
}

func TestPipelineBulkUsesFullPages(t *testing.T) {
	small := runConfig(t, Pipeline, PipelineConfig{Stages: 2, Messages: 4, Size: 8, Options: Options{Seed: 1}})
	bulk := runConfig(t, Pipeline, PipelineConfig{Stages: 2, Messages: 4, Size: pipe.ShortPayload + 100, Options: Options{Seed: 1}})
	if bulk.Net.WireBytes <= small.Net.WireBytes {
		t.Errorf("bulk moved %d wire bytes, control %d; want bulk > control", bulk.Net.WireBytes, small.Net.WireBytes)
	}
}
