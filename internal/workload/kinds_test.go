package workload_test

import (
	"reflect"
	"testing"
	"time"

	"mether"
	"mether/internal/core"
	"mether/internal/protocols"
	"mether/internal/workload"
)

// kinds builds one small workload of every scenario kind on the
// options given: the one table the runner's contract is checked over.
var kinds = map[string]func(workload.Options) (workload.Workload, error){
	"counter": func(o workload.Options) (workload.Workload, error) {
		return protocols.Counter(protocols.Config{Protocol: protocols.P2ShortPage, Target: 32, Options: o})
	},
	"fanout": func(o workload.Options) (workload.Workload, error) {
		return protocols.Fanout(protocols.FanoutConfig{Mode: protocols.FanoutDataDriven, Readers: 3, Updates: 6, Options: o})
	},
	"pipe": func(o workload.Options) (workload.Workload, error) {
		return workload.Pipe(workload.PipeConfig{Dist: workload.Bimodal{Small: 8, Large: 2000, LargeEvery: 3}, Messages: 8, Options: o})
	},
	"hotspot": func(o workload.Options) (workload.Workload, error) {
		return workload.Hotspot(workload.HotspotConfig{Hosts: 4, Iters: 6, ShortPage: true, Options: o})
	},
	"barrier": func(o workload.Options) (workload.Workload, error) {
		return workload.Barrier(workload.BarrierConfig{Hosts: 4, Phases: 3, Options: o})
	},
	"pipeline": func(o workload.Options) (workload.Workload, error) {
		return workload.Pipeline(workload.PipelineConfig{Stages: 3, Messages: 6, Options: o})
	},
	"stationary": func(o workload.Options) (workload.Workload, error) {
		return workload.Stationary(workload.StationaryConfig{Hosts: 8, Iters: 16, Options: o})
	},
}

// bridgedLossy is a world with every hazard the harvest counts: wire
// and bridge-port loss, two trunks, redundant fetches, interrupt-level
// servers and receive rings small enough to overflow.
var bridgedLossy = workload.Options{Seed: 3, Trunks: 2, LossRate: 0.02, PortLoss: 0.02,
	Redundancy: 2, KernelServer: true, RxRing: 4}

// checkHarvest holds every field of a report's Harvest against the
// world's own accessors, read directly: the network and bridge
// counters whole, the driver metrics as every host's summed, and the
// rest field by field, so a field World.Harvest leaves unfilled fails
// here instead of printing 0 in a report.
func checkHarvest(t *testing.T, h mether.Harvest, w *mether.World) {
	t.Helper()
	util, frames := w.TrunkUtilization(h.Wall)
	var ctx uint64
	var drv core.Metrics
	for i := 0; i < w.NumHosts(); i++ {
		ctx += w.ContextSwitches(i)
		drv.Add(w.Driver(i).Metrics())
	}
	ns, lat := w.NetStats(), &drv.FaultLatency
	want := map[string]interface{}{
		"Wall": h.Wall, "CtxSwitches": ctx,
		"Net": ns, "NetBytesPerSec": float64(ns.WireBytes) / h.Wall.Seconds(),
		"Bridge": w.BridgeStats(), "Driver": drv,
		"TrunkUtil": util, "TrunkFrames": frames,
		"LatMean": lat.Mean(), "LatP50": lat.Quantile(0.5), "LatP90": lat.Quantile(0.9),
		"LatP99": lat.Quantile(0.99), "LatP999": lat.Quantile(0.999), "LatMax": lat.Max(), "LatCount": lat.Count(),
		"Events": w.EventsDispatched(), "MemBytes": w.MemFootprint(),
		"Engine": w.Engine(),
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

// TestReportsWhatTheWorldCounted runs every kind on a bridged lossy
// world and on a fabric world and holds each report against the
// finished world itself: the harvest field by field (checkHarvest; a
// kind's own latency stands in for the drivers'), the CPU against the
// processes'. Every kind must load the medium it runs on — fabric
// fan-out frames, bridge forwards — and over the bridged world the
// kinds between them must leave no hazard counter at zero.
func TestReportsWhatTheWorldCounted(t *testing.T) {
	var hazards mether.Harvest
	for kind, build := range kinds {
		for world, o := range map[string]workload.Options{"bridged-lossy": bridgedLossy, "fabric": {Seed: 3, Medium: mether.MediumFabric}} {
			wl, err := build(o)
			if err != nil {
				t.Fatal(err)
			}
			r, w, err := o.RunOpen(wl)
			if err != nil {
				t.Fatalf("%s on %s: %v", kind, world, err)
			}
			h := w.Harvest(r.Wall)
			checkHarvest(t, h, w)
			if r.Latency != nil {
				h.SetLatency(r.Latency)
			}
			var cpu time.Duration
			for i := 0; i < w.NumHosts(); i++ {
				for _, p := range w.HostMachine(i).Procs() {
					cpu += p.User() + p.Sys()
				}
			}
			fabric := world == "fabric"
			if !reflect.DeepEqual(r.Harvest, h) || r.All.Total() != cpu+r.Driver.KernelTime || r.Hosts != w.NumHosts() ||
				r.Ops == 0 || r.Net.WireBytes == 0 || fabric != (r.Net.FanoutFrames > 0) || fabric == (r.Bridge.Forwarded > 0) {
				t.Errorf("%s on %s: report %+v, the world harvests %+v, its processes used %v", kind, world, r, h, cpu)
			}
			if !fabric {
				hazards.Bridge.PortDrops += r.Bridge.PortDrops
				hazards.Net.RingDrops += r.Net.RingDrops
				hazards.Driver.StaleDrops += r.Driver.StaleDrops
				hazards.Driver.KernelTime += r.Driver.KernelTime
				hazards.Driver.RedundantServes += r.Driver.RedundantServes
			}
			w.Shutdown()
		}
	}
	if hazards.Bridge.PortDrops == 0 || hazards.Net.RingDrops == 0 || hazards.Driver.StaleDrops == 0 ||
		hazards.Driver.KernelTime == 0 || hazards.Driver.RedundantServes == 0 {
		t.Errorf("the bridged lossy world left hazard counters at zero: %+v", hazards)
	}

	// Server CPU is the server process's, not that of whatever shares
	// its name.
	r, w, err := workload.Options{}.RunOpen(workload.Workload{Hosts: 1, Pages: 1,
		Layout:  func(*mether.World) error { return nil },
		Clients: []workload.Client{{Host: 0, Name: "metherd"}},
		Body:    func(env *mether.Env, _ int) error { env.Compute(time.Millisecond); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	if srv := w.Driver(0).Server(); r.All.User != time.Millisecond || r.All.Server != srv.User()+srv.Sys() || r.Host0 != r.All {
		t.Errorf("client named metherd: CPU %+v on host 0, %+v in all; want 1ms user and the server's %v",
			r.Host0, r.All, srv.User()+srv.Sys())
	}
}

// TestStationaryReportsWhatTheWorldCounted holds the stationary kind
// to its worlds one at a time: on the bridged lossy world every hazard
// counter must move in this one kind's run, and on a fabric world the
// fan-out must queue on a link.
func TestStationaryReportsWhatTheWorldCounted(t *testing.T) {
	for world, c := range map[string]workload.StationaryConfig{
		"bridged-lossy": {Hosts: 8, Iters: 16, Options: bridgedLossy},
		"fabric":        {Hosts: 4, Iters: 8, Options: workload.Options{Seed: 3, Medium: mether.MediumFabric}},
	} {
		wl, err := workload.Stationary(c)
		if err != nil {
			t.Fatal(err)
		}
		r, w, err := c.RunOpen(wl)
		if err != nil {
			t.Fatalf("%s: %v", world, err)
		}
		checkHarvest(t, r.Harvest, w)
		if world == "fabric" {
			if r.Net.FanoutFrames == 0 || r.Net.LinkMaxQueued == 0 {
				t.Errorf("fabric world reports no fan-out: %+v", r.Harvest)
			}
		} else if r.Bridge.Forwarded == 0 || r.Bridge.PortDrops == 0 || len(r.TrunkUtil) != 2 ||
			r.Net.RingDrops == 0 || r.Driver.StaleDrops == 0 || r.Driver.KernelTime == 0 ||
			r.Driver.RedundantServes == 0 || r.LatCount == 0 {
			t.Errorf("bridged lossy world left the counters it exists to exercise at zero: %+v", r.Harvest)
		}
		w.Shutdown()
	}
}

// TestScenarioDeterminism runs every kind twice on one seed, on the
// bridged lossy world whose loss rolls draw from it: the reports must
// be equal field for field.
func TestScenarioDeterminism(t *testing.T) {
	for kind, build := range kinds {
		var reports [2]workload.Report
		for i := range reports {
			wl, err := build(bridgedLossy)
			if err != nil {
				t.Fatal(err)
			}
			if reports[i], err = bridgedLossy.Run(wl); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
		}
		if !reflect.DeepEqual(reports[0], reports[1]) {
			t.Errorf("%s: same seed, different reports:\n%+v\n%+v", kind, reports[0], reports[1])
		}
	}
}
