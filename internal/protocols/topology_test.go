package protocols

import (
	"testing"
	"time"

	"mether/internal/workload"
)

// TestCounterAcrossBridgedTrunks runs the paper's short-page counter
// with the two peers on opposite trunks of a bridged Ethernet: every
// ownership bounce pays the store-and-forward hop, so the run must
// still finish, must cross the bridge, and must be slower than the
// same run on a single trunk.
func TestCounterAcrossBridgedTrunks(t *testing.T) {
	bridged, err := Run(Config{Protocol: P2ShortPage, Target: 32, Options: workload.Options{Seed: 9, Trunks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if bridged.DNF || bridged.Additions != 32 {
		t.Fatalf("bridged counter: DNF=%v additions=%d, want 32", bridged.DNF, bridged.Additions)
	}
	if bridged.BridgeForwarded == 0 {
		t.Error("no frames crossed the bridge")
	}
	if bridged.BridgeMaxQueued == 0 {
		t.Error("bridge occupancy never observed a queued frame")
	}

	single, err := Run(Config{Protocol: P2ShortPage, Target: 32, Options: workload.Options{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if single.BridgeForwarded != 0 {
		t.Errorf("single-trunk run reports %d forwarded frames", single.BridgeForwarded)
	}
	// Each of the ~64 ownership bounces pays at least the 1ms default
	// store-and-forward delay on top of the single-trunk run.
	if bridged.Wall < single.Wall+32*time.Millisecond {
		t.Errorf("bridged wall %v should exceed single-trunk %v by the bridge hops", bridged.Wall, single.Wall)
	}
}
