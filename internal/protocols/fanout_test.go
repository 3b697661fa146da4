package protocols

import (
	"testing"
	"time"

	"mether/internal/stats"
	"mether/internal/workload"
)

// fanout runs one fanout configuration, failing the test on an error.
func fanout(t *testing.T, cfg FanoutConfig) workload.Report {
	t.Helper()
	wl, err := Fanout(cfg)
	var r workload.Report
	if err == nil {
		r, err = cfg.Run(wl)
	}
	if err != nil {
		t.Fatalf("%v readers=%d: %v", cfg.Mode, cfg.Readers, err)
	}
	return r
}

func runFanout(t *testing.T, mode FanoutMode, readers int) workload.Report {
	t.Helper()
	r := fanout(t, FanoutConfig{Mode: mode, Readers: readers, Updates: 16, Options: workload.Options{Seed: 1}})
	if r.DNF {
		t.Fatalf("%v readers=%d did not finish", mode, readers)
	}
	return r
}

// packetsPerUpdate is the fanout's network load per writer update.
func packetsPerUpdate(r workload.Report) float64 { return stats.Ratio(r.Net.Frames, r.Ops) }

// TestBroadcastFanoutScalesFlat reproduces the broadcast-scaling claim:
// with data-driven readers, one purge serves every copy, so packets per
// update stay ~constant as readers grow, while demand-refetch readers
// cost the writer's host per-reader request traffic.
func TestBroadcastFanoutScalesFlat(t *testing.T) {
	d2 := runFanout(t, FanoutDataDriven, 2)
	d8 := runFanout(t, FanoutDataDriven, 8)
	q2 := runFanout(t, FanoutDemand, 2)
	q8 := runFanout(t, FanoutDemand, 8)

	// Data-driven: packet rate roughly flat in reader count (within 2x;
	// startup fetches add a constant).
	if packetsPerUpdate(d8) > 2*packetsPerUpdate(d2)+2 {
		t.Errorf("data-driven packets/update grew with readers: %f -> %f", packetsPerUpdate(d2), packetsPerUpdate(d8))
	}
	// Demand: packet rate clearly grows with readers.
	if packetsPerUpdate(q8) < 2*packetsPerUpdate(q2) {
		t.Errorf("demand packets/update did not scale with readers: %f -> %f", packetsPerUpdate(q2), packetsPerUpdate(q8))
	}
	// At 8 readers the broadcast mode moves far fewer packets.
	if d8.Net.Frames*3 > q8.Net.Frames {
		t.Errorf("broadcast fan-out (%d pkts) should be well under demand (%d pkts)", d8.Net.Frames, q8.Net.Frames)
	}
	// Writer CPU: demand mode burns more of the writer host's CPU at 8
	// readers than broadcast mode does (it answers every refetch).
	if d8.Host0.Total() >= q8.Host0.Total() {
		t.Errorf("writer CPU: broadcast %v should be under demand %v", d8.Host0.Total(), q8.Host0.Total())
	}
}

func TestFanoutReadersSeeEveryUpdate(t *testing.T) {
	// With paced updates, data-driven readers should observe every value
	// (missed counts are per-reader aggregated).
	r := runFanout(t, FanoutDataDriven, 4)
	if r.Missed != 0 {
		t.Errorf("readers missed %d updates; broadcast refresh should deliver all", r.Missed)
	}
}

func TestFanoutValidation(t *testing.T) {
	if _, err := Fanout(FanoutConfig{Mode: FanoutDataDriven, Readers: 0}); err == nil {
		t.Error("zero readers accepted")
	}
	if _, err := Fanout(FanoutConfig{Readers: 2}); err == nil {
		t.Error("fanout without a mode accepted")
	}
	if r := fanout(t, FanoutConfig{Mode: FanoutDataDriven, Readers: 2, Updates: 4, Options: workload.Options{Cap: time.Millisecond}}); !r.DNF {
		t.Error("tiny cap: the unfinished readers should make the run DNF")
	}
}
