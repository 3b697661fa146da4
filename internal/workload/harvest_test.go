package workload

import (
	"reflect"
	"testing"
	"time"

	"mether"
	"mether/internal/stats"
)

// checkHarvest holds every field of a report's Harvest against the
// world's own accessors, read directly: a counter dropped from
// World.Harvest fails here instead of printing 0 in a report.
func checkHarvest(t *testing.T, h mether.Harvest, w *mether.World) {
	t.Helper()
	ns, bs := w.NetStats(), w.BridgeStats()
	util, frames := w.TrunkUtilization(h.Wall)
	var ctx, retries, fallbacks, stale, xstale, rserves, rsupp, late, orphanRec, ghost, migrated uint64
	var kernel, unavail, rejoin time.Duration
	var lat stats.Histogram
	for i := 0; i < w.NumHosts(); i++ {
		m := w.Driver(i).Metrics()
		ctx += w.ContextSwitches(i)
		retries += m.Retries
		fallbacks += m.DataFallbacks
		stale += m.StaleDrops
		xstale += m.CrossTrunkStale
		rserves += m.RedundantServes
		rsupp += m.RedundantSuppressed
		late += m.LateGrantDrops
		kernel += m.KernelTime
		orphanRec += m.OrphanRecoveries
		ghost += m.GhostDrops
		migrated += m.MigratedPages
		unavail += m.UnavailNS
		rejoin += m.RejoinNS
		lat.Merge(&m.FaultLatency)
	}
	want := map[string]interface{}{
		"Wall": h.Wall, "CtxSwitches": ctx,
		"WireBytes": ns.WireBytes, "Packets": ns.Frames,
		"NetBytesPerSec": float64(ns.WireBytes) / h.Wall.Seconds(),
		"RingDrops":      ns.RingDrops, "TxSuppressed": ns.TxSuppressed, "RingHighWater": ns.RingHighWater,
		"FanoutFrames": ns.FanoutFrames, "LinkOverflows": ns.LinkOverflows, "LinkMaxQueued": ns.LinkMaxQueued,
		"BridgeForwarded": bs.Forwarded, "BridgePortDrops": bs.PortDrops,
		"BridgeMaxQueued": bs.MaxQueued, "BridgePartitionDrops": bs.PartitionDrops,
		"TrunkUtil": util, "TrunkFrames": frames,
		"Retries": retries, "DataFallbacks": fallbacks, "StaleDrops": stale, "CrossTrunkStale": xstale,
		"RedundantServes": rserves, "RedundantSuppressed": rsupp, "LateDrops": late, "KernelTime": kernel,
		"OrphanRecoveries": orphanRec, "GhostDrops": ghost, "MigratedPages": migrated,
		"UnavailNS": unavail, "RejoinNS": rejoin,
		"LatMean": lat.Mean(), "LatP50": lat.Quantile(0.5), "LatP90": lat.Quantile(0.9),
		"LatP99": lat.Quantile(0.99), "LatP999": lat.Quantile(0.999), "LatMax": lat.Max(), "LatCount": lat.Count(),
		"Events": w.EventsDispatched(), "MemBytes": w.MemFootprint(),
		"Resumes": w.Resumes(),
	}
	v := reflect.ValueOf(h)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		wantV, ok := want[name]
		if !ok {
			t.Errorf("Harvest.%s has no accessor to be checked against", name)
		} else if got := v.Field(i).Interface(); !reflect.DeepEqual(got, wantV) {
			t.Errorf("Harvest.%s = %v, the world's accessors say %v", name, got, wantV)
		}
	}
}

// TestStationaryReportsWhatTheWorldCounted runs the stationary workload
// on a bridged lossy world and on a fabric world and checks the report's
// numbers against the finished world itself.
func TestStationaryReportsWhatTheWorldCounted(t *testing.T) {
	bridged, w, err := runStationary(StationaryConfig{Hosts: 8, Iters: 16, Options: Options{
		Seed: 3, Trunks: 2, LossRate: 0.02, PortLoss: 0.02, Redundancy: 2, KernelServer: true, RxRing: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	checkHarvest(t, bridged.Harvest, w)
	if bridged.BridgeForwarded == 0 || bridged.BridgePortDrops == 0 || len(bridged.TrunkUtil) != 2 ||
		bridged.RingDrops == 0 || bridged.StaleDrops == 0 || bridged.KernelTime == 0 ||
		bridged.RedundantServes == 0 || bridged.LatCount == 0 {
		t.Errorf("bridged lossy world left the counters it exists to exercise at zero: %+v", bridged.Harvest)
	}

	fab, fw, err := runStationary(StationaryConfig{Hosts: 4, Iters: 8, Options: Options{
		Seed: 3, Medium: mether.MediumFabric,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Shutdown()
	checkHarvest(t, fab.Harvest, fw)
	if fab.FanoutFrames == 0 || fab.LinkMaxQueued == 0 {
		t.Errorf("fabric world reports no fan-out: %+v", fab.Harvest)
	}

	// Server CPU is the server process's, not that of whatever shares
	// its name.
	nw, err := Options{}.World(1, 1, func(*mether.World) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	nw.Spawn(0, "metherd", func(env *mether.Env) { env.Compute(time.Millisecond) })
	cs, _, _ := Options{}.finish(nw, nil, nil, new(time.Duration))
	if srv := nw.Driver(0).Server(); cs.UserCPU != time.Millisecond || cs.ServerCPU != srv.User()+srv.Sys() {
		t.Errorf("client named metherd: user %v server %v, want 1ms and the server's own %v",
			cs.UserCPU, cs.ServerCPU, srv.User()+srv.Sys())
	}
}
