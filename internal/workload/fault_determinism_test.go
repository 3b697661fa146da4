package workload

import (
	"reflect"
	"testing"
	"time"

	"mether"
	"mether/internal/fault"
)

// The fault plane is part of the deterministic event fabric: the same
// seeded churn schedule against the same seeded workload must produce a
// byte-identical report, run after run.
func TestFaultedStationaryDeterministic(t *testing.T) {
	sched := fault.Churn(42, 8, 0.25, 50*time.Millisecond, 200*time.Millisecond, 30*time.Millisecond, 2)
	cfg := StationaryConfig{Hosts: 8, Iters: 8, Options: Options{Seed: 7, Cap: time.Minute, Faults: sched, ClaimRetries: 4}}
	a, b := runConfig(t, Stationary, cfg), runConfig(t, Stationary, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed + same fault schedule produced different reports:\n%+v\n%+v", a, b)
	}
	if a.DNF {
		t.Errorf("churned run did not finish: %+v", a)
	}
	if a.Driver.UnavailNS == 0 {
		t.Error("churn crashed hosts but UnavailNS is zero")
	}
	if a.Orphaned != 0 {
		t.Errorf("%d page(s) still orphaned after churn settled", a.Orphaned)
	}
}

// An empty fault schedule must be a true no-op: field-for-field equal to
// a run that never heard of the fault plane. This is what proves an
// unused fault plane free: every cell without a schedule pays nothing.
func TestEmptyFaultScheduleIsNeutral(t *testing.T) {
	cfg := StationaryConfig{Hosts: 4, Iters: 8, Options: Options{Seed: 7, Cap: time.Minute}}
	plain := runConfig(t, Stationary, cfg)
	cfg.Faults = fault.Schedule{}
	empty := runConfig(t, Stationary, cfg)
	if !reflect.DeepEqual(plain, empty) {
		t.Errorf("empty schedule perturbed the run:\nplain %+v\nempty %+v", plain, empty)
	}
}

// Partitioning or healing a bridge the world does not have is an error,
// never a panic or an index out of range — on a single trunk, on a
// fabric, and past either end of a real topology's bridge list.
func TestPartitionOfMissingBridgeIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		bridge int
		ok     bool
	}{
		{"single trunk", Options{}, 0, false},
		{"fabric", Options{Medium: mether.MediumFabric}, 0, false},
		{"two trunks, the bridge", Options{Trunks: 2}, 0, true},
		{"two trunks, one past", Options{Trunks: 2}, 1, false},
		{"two trunks, negative", Options{Trunks: 2}, -1, false},
	} {
		w, err := tc.opts.World(4, 1, func(*mether.World) error { return nil })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := w.PartitionBridge(tc.bridge); (err == nil) != tc.ok {
			t.Errorf("%s: PartitionBridge(%d) = %v, want ok=%v", tc.name, tc.bridge, err, tc.ok)
		}
		if err := w.HealBridge(tc.bridge); (err == nil) != tc.ok {
			t.Errorf("%s: HealBridge(%d) = %v, want ok=%v", tc.name, tc.bridge, err, tc.ok)
		}
		w.Shutdown()
	}
}

// Crash/heal on the hotspot star topology: a mid-run trunk partition
// heals and the run still completes — no livelock, no orphans — with
// the outage visible as retry-stretched wall time against the healthy
// run of the same seed.
func TestHotspotPartitionHealCompletes(t *testing.T) {
	cfg := HotspotConfig{Hosts: 8, Iters: 8, OwnerTrunk: 1,
		Options: Options{Seed: 3, Trunks: 2, Cap: time.Minute}}
	healthy := runConfig(t, Hotspot, cfg)
	cfg.Faults = fault.Schedule{}.Partition(200*time.Millisecond, 0).Heal(900*time.Millisecond, 0)
	r := runConfig(t, Hotspot, cfg)
	if r.DNF {
		t.Fatalf("partition-heal run did not finish: %+v", r)
	}
	if r.Orphaned != 0 {
		t.Errorf("%d page(s) orphaned after heal", r.Orphaned)
	}
	if r.Wall <= healthy.Wall {
		t.Errorf("partitioned wall %v not above healthy %v; the outage cut no traffic", r.Wall, healthy.Wall)
	}
}
