package protocols

import (
	"reflect"
	"testing"
	"time"

	"mether"
	"mether/internal/workload"
)

// TestCounterAcrossBridgedTrunks runs the paper's short-page counter
// with the two peers on opposite trunks of a bridged Ethernet: every
// ownership bounce pays the store-and-forward hop, so the run must
// still finish, must cross the bridge, and must be slower than the
// same run on a single trunk.
func TestCounterAcrossBridgedTrunks(t *testing.T) {
	bridged := count(t, Config{Protocol: P2ShortPage, Target: 32, Options: workload.Options{Seed: 9, Trunks: 2}})
	if bridged.DNF || bridged.Ops != 32 {
		t.Fatalf("bridged counter: DNF=%v additions=%d, want 32", bridged.DNF, bridged.Ops)
	}
	if bridged.Bridge.Forwarded == 0 {
		t.Error("no frames crossed the bridge")
	}
	if bridged.Bridge.MaxQueued == 0 {
		t.Error("bridge occupancy never observed a queued frame")
	}

	single := count(t, Config{Protocol: P2ShortPage, Target: 32, Options: workload.Options{Seed: 9}})
	if single.Bridge.Forwarded != 0 {
		t.Errorf("single-trunk run reports %d forwarded frames", single.Bridge.Forwarded)
	}
	// Each of the ~64 ownership bounces pays at least the 1ms default
	// store-and-forward delay on top of the single-trunk run.
	if bridged.Wall < single.Wall+32*time.Millisecond {
		t.Errorf("bridged wall %v should exceed single-trunk %v by the bridge hops", bridged.Wall, single.Wall)
	}
}

// TestCounterReportsWhatTheWorldCounted holds the counter report's
// embedded harvest against the finished world, on a bridged lossy world
// and on a fabric world: every number equals a fresh World.Harvest
// (itself checked field by field against the World accessors in
// internal/workload), and the headline counters equal the accessors
// read directly.
func TestCounterReportsWhatTheWorldCounted(t *testing.T) {
	for name, opts := range map[string]workload.Options{
		"bridged-lossy": {Seed: 5, Trunks: 2, LossRate: 0.01},
		"fabric":        {Seed: 5, Medium: mether.MediumFabric},
	} {
		wl, err := Counter(Config{Protocol: P2ShortPage, Target: 64, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		r, w, err := opts.RunOpen(wl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := w.Harvest(r.Wall); !reflect.DeepEqual(r.Harvest, got) {
			t.Errorf("%s: report carries %+v, the world harvests %+v", name, r.Harvest, got)
		}
		ns, bs := w.NetStats(), w.BridgeStats()
		util, _ := w.TrunkUtilization(r.Wall)
		if r.Net.WireBytes != ns.WireBytes || r.Net.Frames != ns.Frames || r.Net.FanoutFrames != ns.FanoutFrames ||
			r.Bridge.Forwarded != bs.Forwarded || !reflect.DeepEqual(r.TrunkUtil, util) ||
			r.Driver.Retries != w.Driver(0).Metrics().Retries+w.Driver(1).Metrics().Retries {
			t.Errorf("%s: report %+v disagrees with net %+v bridge %+v", name, r.Harvest, ns, bs)
		}
		if r.Net.WireBytes == 0 || r.LatCount == 0 || (opts.Trunks > 1) != (r.Bridge.Forwarded > 0) ||
			(opts.Medium != "") != (r.Net.FanoutFrames > 0) {
			t.Errorf("%s: world left the counters it exists to exercise at zero: %+v", name, r.Harvest)
		}
		w.Shutdown()
	}
}
