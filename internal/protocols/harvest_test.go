package protocols

import (
	"reflect"
	"testing"

	"mether"
	"mether/internal/workload"
)

// TestCounterReportsWhatTheWorldCounted holds the counter report's
// embedded harvest against the finished world, on a bridged lossy world
// and on a fabric world: every number equals a fresh World.Harvest
// (itself checked field by field against the World accessors in
// internal/workload), and the headline counters equal the accessors
// read directly.
func TestCounterReportsWhatTheWorldCounted(t *testing.T) {
	for name, opts := range map[string]workload.Options{
		"bridged-lossy": {Seed: 5, Trunks: 2, LossRate: 0.01, PortLoss: 0.01},
		"fabric":        {Seed: 5, Medium: mether.MediumFabric},
	} {
		r, w, err := run(Config{Protocol: P2ShortPage, Target: 64, Options: opts})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := w.Harvest(r.Wall); !reflect.DeepEqual(r.Harvest, got) {
			t.Errorf("%s: report carries %+v, the world harvests %+v", name, r.Harvest, got)
		}
		ns, bs := w.NetStats(), w.BridgeStats()
		util, _ := w.TrunkUtilization(r.Wall)
		if r.WireBytes != ns.WireBytes || r.Packets != ns.Frames || r.FanoutFrames != ns.FanoutFrames ||
			r.BridgeForwarded != bs.Forwarded || !reflect.DeepEqual(r.TrunkUtil, util) ||
			r.Retries != w.Driver(0).Metrics().Retries+w.Driver(1).Metrics().Retries {
			t.Errorf("%s: report %+v disagrees with net %+v bridge %+v", name, r.Harvest, ns, bs)
		}
		if r.WireBytes == 0 || r.LatCount == 0 || (opts.Trunks > 1) != (r.BridgeForwarded > 0) ||
			(opts.Medium != "") != (r.FanoutFrames > 0) {
			t.Errorf("%s: world left the counters it exists to exercise at zero: %+v", name, r.Harvest)
		}
		w.Shutdown()
	}
}
