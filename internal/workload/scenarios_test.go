package workload

import (
	"reflect"
	"testing"
	"time"

	"mether/pipe"
)

func TestHotspotCompletes(t *testing.T) {
	r, err := RunHotspot(HotspotConfig{Hosts: 3, Iters: 8, ShortPage: true, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.DNF {
		t.Fatal("hotspot did not finish")
	}
	if r.Updates != 3*8 {
		t.Errorf("updates = %d, want 24", r.Updates)
	}
	if r.Wall <= 0 || r.WireBytes == 0 || r.LatCount == 0 {
		t.Errorf("implausible report: %+v", r)
	}
}

func TestHotspotShortMovesFewerBytes(t *testing.T) {
	short, err := RunHotspot(HotspotConfig{Hosts: 2, Iters: 8, ShortPage: true, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunHotspot(HotspotConfig{Hosts: 2, Iters: 8, ShortPage: false, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if short.WireBytes >= full.WireBytes {
		t.Errorf("short page moved %d wire bytes, full %d; want short < full", short.WireBytes, full.WireBytes)
	}
}

func TestHotspotRejectsBadConfig(t *testing.T) {
	if _, err := RunHotspot(HotspotConfig{Hosts: 9, ShortPage: true}); err == nil {
		t.Error("9-host short hotspot should be rejected (8 word slots)")
	}
	if _, err := RunHotspot(HotspotConfig{Hosts: 1, Iters: 1}); err == nil {
		t.Error("1-host hotspot should be rejected")
	}
}

func TestBarrierCompletes(t *testing.T) {
	r, err := RunBarrier(BarrierConfig{Hosts: 3, Phases: 4, Work: time.Millisecond, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.DNF {
		t.Fatal("barrier did not finish")
	}
	// One wait sample per host per phase.
	if r.LatCount != 3*4 {
		t.Errorf("barrier wait samples = %d, want 12", r.LatCount)
	}
	if r.Wall < 4*time.Millisecond/2 {
		t.Errorf("wall %v implausibly short for 4 phases of ~1ms work", r.Wall)
	}
}

func TestPipelineDeliversInOrder(t *testing.T) {
	r, err := RunPipeline(PipelineConfig{Stages: 3, Messages: 6, Size: 8, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.DNF || r.Delivered != 6 {
		t.Fatalf("delivered %d/6 (DNF=%v)", r.Delivered, r.DNF)
	}
	if r.LatCount != 6 || r.LatMean <= 0 {
		t.Errorf("latency histogram: count=%d mean=%v", r.LatCount, r.LatMean)
	}
	if r.MsgsPerSec <= 0 {
		t.Errorf("throughput %v", r.MsgsPerSec)
	}
}

func TestPipelineBulkUsesFullPages(t *testing.T) {
	small, err := RunPipeline(PipelineConfig{Stages: 2, Messages: 4, Size: 8, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := RunPipeline(PipelineConfig{Stages: 2, Messages: 4, Size: pipe.ShortPayload + 100, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if bulk.WireBytes <= small.WireBytes {
		t.Errorf("bulk moved %d wire bytes, control %d; want bulk > control", bulk.WireBytes, small.WireBytes)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a, err := RunBarrier(BarrierConfig{Hosts: 2, Phases: 3, Options: Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBarrier(BarrierConfig{Hosts: 2, Phases: 3, Options: Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different barrier reports:\n a=%+v\n b=%+v", a, b)
	}
}
