package main

import (
	"fmt"
	"runtime"
	"time"

	"mether"
	"mether/internal/ethernet"
	"mether/internal/fabric"
	"mether/internal/fault"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
	"mether/internal/stats"
	"mether/internal/sweep"
	"mether/internal/vm"
)

// A micro-driver times one operation of one layer through the layer's
// exported functions only, at a fixed iteration count. prepare builds
// the fixture; only body is timed. They exist so a change can name the
// layer it moved; the registry says which end-to-end cell each should
// move, and none of them is an end-to-end claim.
type microDriver struct {
	metric string
	n      int // iterations of the body's loop (a twentieth under -scale small)
	per    int // operations per iteration, such as receivers per broadcast
	// prepare builds the fixture for n iterations.
	prepare func(seed int64, n int) (body, done func())
}

// microReps is how often each micro-driver runs; the median is reported.
const microReps = 3

// measure returns the driver's ns per operation over microReps runs and
// the heap allocations per operation of the last.
func (d microDriver) measure(seed int64, small bool) (ns summary, allocs float64) {
	n := d.n
	if small {
		n = n/20 + 1
	}
	ops := float64(n * d.per)
	samples := make([]float64, microReps)
	var before, after runtime.MemStats
	for r := range samples {
		body, done := d.prepare(seed, n)
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		body()
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		if done != nil {
			done()
		}
		samples[r] = float64(elapsed.Nanoseconds()) / ops
		allocs = float64(after.Mallocs-before.Mallocs) / ops
	}
	return summarize(samples), allocs
}

// chain runs fn n times as a chain of kernel events d apart and returns
// when the kernel drains. It is the events' own dispatch plus fn.
func chain(k *sim.Kernel, n int, d time.Duration, fn func()) {
	i := 0
	var tick func()
	tick = func() {
		fn()
		if i++; i < n {
			k.After(d, "tick", tick)
		}
	}
	k.After(d, "tick", tick)
	k.Run()
}

func nop() {}

var payloadShort, payloadFull = make([]byte, 48), make([]byte, 8208)

// drain is a receiver's interrupt handler: take every frame, release it.
func drain(p medium.Port) {
	for {
		f, ok := p.Recv()
		if !ok {
			return
		}
		p.Release(f)
	}
}

// attachDrainers attaches n draining stations to m.
func attachDrainers(m medium.Medium, n int) []medium.Port {
	ports := make([]medium.Port, n)
	for i := range ports {
		i := i
		ports[i] = m.AttachPort("rx", func() { drain(ports[i]) })
	}
	return ports
}

// wireTime is a pace at which a medium of the given rate has drained a
// payload (with generous header room) before the next one is sent, so a
// driver measures the data path and not queue growth.
func wireTime(payload int, bps int64) time.Duration {
	return time.Duration(int64(payload+128)*8*int64(time.Second)/bps) + 100*time.Microsecond
}

// newBus and newFabric build the two media at their default parameters
// and return the signalling rate a sender paces itself by.
func newBus(k *sim.Kernel) (medium.Medium, int64) {
	p := ethernet.DefaultParams()
	return ethernet.NewBus(k, p), p.BandwidthBps
}

func newFabric(k *sim.Kernel) (medium.Medium, int64) {
	p := fabric.DefaultParams()
	return fabric.New(k, p), p.BandwidthBps
}

// sendDriver sends n frames from one station to dst (a station index, or
// Broadcast) on a medium with rx draining receivers.
func sendDriver(metric string, newMedium func(*sim.Kernel) (medium.Medium, int64), n, rx, dst int, payload []byte) microDriver {
	per := 1
	if dst == medium.Broadcast {
		per = rx
	}
	return microDriver{metric, n, per, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		m, bps := newMedium(k)
		attachDrainers(m, rx)
		tx := m.AttachPort("tx", nil)
		pace := wireTime(len(payload), bps)
		return func() { chain(k, n, pace, func() { tx.Send(dst, payload) }) }, nil
	}}
}

func protoPacket(short bool) proto.Packet {
	p := proto.Packet{Type: proto.TypeData, Page: 7, Short: short, From: 3, OwnerTo: proto.NoOwner, ReqID: 9, Gen: 42}
	p.Data = make([]byte, vm.PageSize)
	if short {
		p.Data = p.Data[:vm.ShortSize]
	}
	return p
}

// sink keeps results alive so the compiler cannot drop the measured call.
var sink int

func protoDriver(metric string, short, decode bool) microDriver {
	return microDriver{metric, 200_000, 1, func(_ int64, n int) (func(), func()) {
		pkt := protoPacket(short)
		wire, err := proto.Encode(pkt)
		must(err)
		scratch := make([]byte, 0, len(wire))
		if decode {
			return func() {
				for i := 0; i < n; i++ {
					p, _ := proto.Decode(wire)
					sink += len(p.Data)
				}
			}, nil
		}
		return func() {
			for i := 0; i < n; i++ {
				b, _ := proto.AppendEncode(scratch[:0], pkt)
				sink += len(b)
			}
		}, nil
	}}
}

// worldOwners builds a world whose segment has one page per host, owned
// by that host, the layout of the stationary and barrier workloads.
func worldOwners(seed int64, hosts int, warm bool) (*mether.World, *mether.Segment) {
	pages := hosts
	if pages < 8 {
		pages = 8
	}
	w := mether.NewWorld(mether.Config{Hosts: hosts, Pages: pages, Seed: seed})
	owners := make([]int, hosts)
	for i := range owners {
		owners[i] = i
	}
	seg, err := w.CreateSegmentOwners("bench", owners)
	must(err)
	if warm {
		seg.WarmReplicas()
	}
	return w, seg
}

// must turns an error no micro-driver fixture can legitimately produce
// into a panic: the fixtures are fixed, so an error is a bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func worldBuildDriver(metric string, hosts, builds int) microDriver {
	return microDriver{metric, builds, hosts, func(seed int64, n int) (func(), func()) {
		return func() {
			for i := 0; i < n; i++ {
				w, _ := worldOwners(seed, hosts, true)
				w.Shutdown()
			}
		}, nil
	}}
}

// faultLoop spawns on host 1 a reader that n times drops its replica of
// host 0's page and demand-fetches it again: request, the owner's
// server, reply, install, wake.
func faultLoop(w *mether.World, seg *mether.Segment, n int) {
	w.Spawn(1, "reader", func(env *mether.Env) {
		m, err := env.Attach(seg.CapRO(), mether.RO)
		must(err)
		a := m.Addr(0, 0).Short()
		for i := 0; i < n; i++ {
			must(m.Purge(a))
			_, err := m.Load32(a)
			must(err)
		}
	})
}

var microDrivers = []microDriver{
	{"sim.dispatch_ns", 400_000, 1, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		return func() { chain(k, n, time.Microsecond, nop) }, nil
	}},
	{"sim.immediate_ns", 400_000, 1, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		return func() { chain(k, n, 0, nop) }, nil
	}},
	{"sim.dispatch_deep_ns", 400_000, 1, func(seed int64, n int) (func(), func()) {
		// 4096 timers pending at all times: each firing re-arms itself
		// 4096 µs ahead until n events have been armed.
		const depth = 4096
		k := sim.New(seed)
		armed := 0
		var tick func()
		arm := func(d time.Duration) {
			if armed < n {
				armed++
				k.After(d, "tick", tick)
			}
		}
		tick = func() { arm(depth * time.Microsecond) }
		for i := 1; i <= depth; i++ {
			arm(time.Duration(i) * time.Microsecond)
		}
		return func() { k.Run() }, nil
	}},
	{"sim.cancel_ns", 300_000, 1, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		return func() {
			chain(k, n, time.Microsecond, func() { k.After(time.Millisecond, "retry", nop).Cancel() })
		}, nil
	}},
	{"sim.coalesced_ns", 2000, 256, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		return func() {
			chain(k, n, 10*time.Microsecond, func() {
				for i := 0; i < 256; i++ {
					k.AfterCoalesced(time.Microsecond, "intr", nop)
				}
			})
		}, nil
	}},
	{"sim.proc_switch_ns", 100_000, 1, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		k.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		return func() { k.Run() }, k.Shutdown
	}},
	{"sim.park_wake_ns", 100_000, 1, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		p := k.Spawn("parker", func(p *sim.Proc) {
			for {
				p.Park("bench")
			}
		})
		return func() { chain(k, n, time.Microsecond, p.Wake) }, k.Shutdown
	}},

	{"host.sleep_wake_ns", 100_000, 1, func(seed int64, n int) (func(), func()) {
		k := sim.New(seed)
		h := host.New(k, 0, "bench", host.DefaultParams())
		var key any = "benchkey"
		h.Spawn("sleeper", func(p *host.Proc) {
			for {
				p.SleepOn(key)
			}
		})
		return func() { chain(k, n, 50*time.Microsecond, func() { h.Wakeup(key) }) }, k.Shutdown
	}},
	{"host.quantum_rotation_ns", 50_000, 2, func(seed int64, n int) (func(), func()) {
		// Two compute-bound processes alternating whole quanta.
		k := sim.New(seed)
		h := host.New(k, 0, "bench", host.DefaultParams())
		for i := 0; i < 2; i++ {
			h.Spawn("spinner", func(p *host.Proc) { p.UseUser(h.Params().Quantum * time.Duration(n)) })
		}
		return func() { k.Run() }, k.Shutdown
	}},

	{"medium.pool_cycle_ns", 2_000_000, 1, func(_ int64, n int) (func(), func()) {
		var pool medium.Pool
		return func() {
			for i := 0; i < n; i++ {
				b := pool.Acquire(48)
				b.Refs = 1
				pool.Release(b)
			}
		}, nil
	}},
	{"medium.ring_cycle_ns", 2_000_000, 1, func(_ int64, n int) (func(), func()) {
		ring := medium.NewRing(32)
		f := medium.Frame{Payload: payloadShort}
		return func() {
			for i := 0; i < n; i++ {
				ring.Push(f)
				ring.Pop()
			}
		}, nil
	}},

	sendDriver("ethernet.unicast_ns", newBus, 100_000, 1, 0, payloadShort),
	sendDriver("ethernet.bcast_short_ns_per_rx", newBus, 1000, 256, medium.Broadcast, payloadShort),
	sendDriver("ethernet.bcast_full_ns_per_rx", newBus, 1000, 256, medium.Broadcast, payloadFull),
	{"ethernet.bridge_fwd_ns", 50_000, 1, func(seed int64, n int) (func(), func()) {
		// A bridge picks up broadcasts only, so the frame is a
		// broadcast with one station on the far side.
		k := sim.New(seed)
		a, b := ethernet.NewBus(k, ethernet.DefaultParams()), ethernet.NewBus(k, ethernet.DefaultParams())
		ethernet.NewBridge(k, a, b, time.Millisecond)
		attachDrainers(b, 1)
		tx := a.AttachPort("tx", nil)
		pace := wireTime(len(payloadShort), a.Params().BandwidthBps)
		return func() { chain(k, n, pace, func() { tx.Send(medium.Broadcast, payloadShort) }) }, nil
	}},

	sendDriver("fabric.unicast_ns", newFabric, 100_000, 1, 0, payloadShort),
	sendDriver("fabric.fanout_ns_per_copy", newFabric, 1000, 256, medium.Broadcast, payloadShort),

	protoDriver("proto.encode_short_ns", true, false),
	protoDriver("proto.encode_full_ns", false, false),
	protoDriver("proto.decode_short_ns", true, true),
	protoDriver("proto.decode_full_ns", false, true),

	{"core.fault_rt_ns", 2000, 1, func(seed int64, n int) (func(), func()) {
		w, seg := worldOwners(seed, 2, false)
		faultLoop(w, seg, n)
		return func() { w.Run() }, w.Shutdown
	}},
	{"core.own_transfer_ns", 500, 2, func(seed int64, n int) (func(), func()) {
		// Two writers store to one page in turn: each store steals the
		// consistent copy back, hold-off included.
		w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 8, Seed: seed})
		seg, err := w.CreateSegment("bench", 1, 0)
		must(err)
		for h := 0; h < 2; h++ {
			h := h
			w.Spawn(h, "writer", func(env *mether.Env) {
				m, err := env.Attach(seg.CapRW(), mether.RW)
				must(err)
				a := m.Addr(0, 4*h).Short()
				for i := 0; i < n; i++ {
					must(m.Store32(a, uint32(i)))
					env.SleepFor(time.Millisecond)
				}
			})
		}
		return func() { w.Run() }, w.Shutdown
	}},
	{"core.purge_bcast_ns_per_rx", 200, 255, func(seed int64, n int) (func(), func()) {
		// One owner in a warm 256-host world updates and purges its
		// page: 255 servers each snoop the short broadcast.
		w, seg := worldOwners(seed, 256, true)
		w.Spawn(0, "owner", func(env *mether.Env) {
			m, err := env.AttachPages(seg.CapRW(), mether.RW, 0)
			must(err)
			a := m.Addr(0, 0).Short()
			for i := 0; i < n; i++ {
				must(m.Store32(a, uint32(i)))
				must(m.Purge(a))
			}
		})
		return func() { w.Run() }, w.Shutdown
	}},
	{"core.seed_replica_ns_per_page", 1 << 15, 1, func(seed int64, n int) (func(), func()) {
		w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 1 << 15, Seed: seed})
		d := w.Driver(1)
		return func() {
			for id := 0; id < n; id++ {
				d.SeedReplica(vm.PageID(id))
			}
		}, w.Shutdown
	}},

	worldBuildDriver("world.build_ns_per_host_256", 256, 8),
	worldBuildDriver("world.build_ns_per_host_4096", 4096, 1),

	{"sweep.grid_build_ns", 200, 1, func(seed int64, n int) (func(), func()) {
		return func() {
			for i := 0; i < n; i++ {
				_, err := sweep.Grid("cluster", sweep.Options{Seed: seed})
				must(err)
			}
		}, nil
	}},
	{"sweep.report_json_ns", 100, 1, func(seed int64, n int) (func(), func()) {
		rep := syntheticReport(seed, 0)
		return func() {
			for i := 0; i < n; i++ {
				_, err := rep.JSON()
				must(err)
			}
		}, nil
	}},
	{"sweep.compare_ns", 1000, 1, func(seed int64, n int) (func(), func()) {
		a, b := syntheticReport(seed, 0), syntheticReport(seed, 1)
		return func() {
			for i := 0; i < n; i++ {
				sink += len(sweep.Compare(a, b, 0))
			}
		}, nil
	}},

	{"stats.observe_ns", 2_000_000, 1, func(_ int64, n int) (func(), func()) {
		var h stats.Histogram
		return func() {
			for i := 0; i < n; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}, nil
	}},
	{"stats.quantile_ns", 200_000, 1, func(_ int64, n int) (func(), func()) {
		var h stats.Histogram
		for i := 0; i < 100_000; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		return func() {
			for i := 0; i < n; i++ {
				sink += int(h.Quantile(0.99))
			}
		}, nil
	}},
	{"fault.parse_ns", 50_000, 1, func(_ int64, n int) (func(), func()) {
		return func() {
			for i := 0; i < n; i++ {
				_, err := fault.Parse("crash@150ms:h3;recover@400ms:h3;partition@200ms:b0;heal@350ms:b0")
				must(err)
			}
		}, nil
	}},
}

// syntheticReport is a 64-cell report with every numeric field filled;
// bump shifts the values so two reports differ.
func syntheticReport(seed int64, bump int64) sweep.Report {
	rep := sweep.Report{Grid: "bench"}
	for i := int64(0); i < 64; i++ {
		v := seed*1000 + i + bump
		rep.Scenarios = append(rep.Scenarios, sweep.Result{
			Name: fmt.Sprintf("cell/%d", i), Kind: sweep.KindStationary, Seed: seed,
			WallNS: v * 1e6, Ops: uint64(v), OpsPerSec: float64(v) / 3, UserNS: v, SysNS: v, ServerNS: v,
			CtxSwitches: uint64(v), WireBytes: uint64(v) * 100, Packets: uint64(v), NetBytesPerSec: float64(v) * 7,
			LatMeanNS: v, LatP50NS: v, LatP90NS: v, LatP99NS: v, LatP999NS: v, LatMaxNS: v, LatCount: uint64(v),
			Events: uint64(v) * 1000, MemBytes: uint64(v) * 4096, BytesPerHost: float64(v), RingHighWater: int(v % 32),
		})
	}
	return rep
}

// shareOf is a ratio of two counters, 0 when nothing was attempted.
func shareOf(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// The value drivers report a model's own ratio or footprint rather than
// a time: wasted-work shares where a layer can waste work, and the
// structural memory of a world. They are virtual: exact for a seed.
var valueDrivers = []struct {
	metric  string
	measure func(seed int64) float64
}{
	{"ethernet.ring_drop_share", func(seed int64) float64 {
		// 64 frames offered to a 32-slot ring nobody drains.
		k := sim.New(seed)
		bus := ethernet.NewBus(k, ethernet.DefaultParams())
		rx := bus.AttachPortWithRing("rx", nil, 32)
		tx := bus.AttachPort("tx", nil)
		chain(k, 64, wireTime(len(payloadShort), bus.Params().BandwidthBps), func() { tx.Send(rx.ID(), payloadShort) })
		return shareOf(rx.Drops(), 64)
	}},
	{"fabric.link_overflow_share", func(seed int64) float64 {
		// 256 frames offered back to back to one link's transmit queue.
		k := sim.New(seed)
		fb := fabric.New(k, fabric.DefaultParams())
		rx := attachDrainers(fb, 1)[0]
		tx := fb.AttachPort("tx", nil)
		k.After(0, "burst", func() {
			for i := 0; i < 256; i++ {
				tx.Send(rx.ID(), payloadFull)
			}
		})
		k.Run()
		return shareOf(fb.Stats().LinkOverflows, 256)
	}},
	{"world.mem_bytes_per_host_4096", func(seed int64) float64 {
		w, _ := worldOwners(seed, 4096, true)
		defer w.Shutdown()
		return float64(w.MemFootprint()) / 4096
	}},
}

// contention runs a 16-host hot page (every host a writer, four stores
// each) and returns the drivers' wasted-work shares: retransmitted
// requests, and snooped broadcasts dropped as stale.
func contention(seed int64) (retryShare, staleShare float64) {
	const hosts = 16
	w := mether.NewWorld(mether.Config{Hosts: hosts, Pages: 8, Seed: seed})
	defer w.Shutdown()
	seg, err := w.CreateSegment("bench", 1, 0)
	must(err)
	for h := 0; h < hosts; h++ {
		h := h
		w.Spawn(h, "writer", func(env *mether.Env) {
			m, err := env.Attach(seg.CapRW(), mether.RW)
			must(err)
			for i := 0; i < 4; i++ {
				must(m.Store32(m.Addr(0, 4*h), uint32(i)))
				env.Compute(100 * time.Microsecond)
			}
		})
	}
	w.RunUntil(10 * time.Minute)
	var retries, requests, stale, refreshes uint64
	for h := 0; h < hosts; h++ {
		m := w.Driver(h).Metrics()
		retries += m.Retries
		requests += m.RequestsSent
		stale += m.StaleDrops
		refreshes += m.Refreshes
	}
	return shareOf(retries, requests), shareOf(stale, stale+refreshes)
}

// tapCost is the extra host time per frame when a trace.Tap listens:
// the same two-host demand-fault loop with and without one.
func tapCost(seed int64) float64 {
	const faults = 2000
	run := func(tap bool) (time.Duration, uint64) {
		w, seg := worldOwners(seed, 2, false)
		defer w.Shutdown()
		if tap {
			w.AttachTap(1)
		}
		faultLoop(w, seg, faults)
		runtime.GC()
		t0 := time.Now()
		w.Run()
		return time.Since(t0), w.NetStats().Frames
	}
	var deltas []float64
	for r := 0; r < microReps; r++ {
		plain, frames := run(false)
		tapped, _ := run(true)
		deltas = append(deltas, float64((tapped-plain).Nanoseconds())/float64(frames))
	}
	return summarize(deltas).Median
}

// runnerSpeedup is sweep.Runner with two workers against one on sixteen
// 16-host cells. It needs two processors, so it lifts the harness's pin
// while it runs; on a one-core machine it reads about 1.
func runnerSpeedup(seed int64) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cells := make([]sweep.Scenario, 16)
	for i := range cells {
		cells[i] = sweep.Scenario{Name: fmt.Sprintf("cell/%d", i), Kind: sweep.KindStationary, Hosts: 16, Iters: 8, Seed: seed}
	}
	_, one := sweep.Runner{Workers: 1}.Run("bench", cells)
	_, two := sweep.Runner{Workers: 2}.Run("bench", cells)
	return one.Elapsed.Seconds() / two.Elapsed.Seconds()
}

// runLayers measures every workload-independent per-layer metric.
func runLayers(seed int64, small bool, metrics map[string]value) {
	units := make(map[string]string)
	for _, m := range layerMetrics {
		units[m.Name] = m.Unit
	}
	for _, d := range microDrivers {
		ns, allocs := d.measure(seed, small)
		metrics[d.metric] = value{Value: ns.Median, Unit: units[d.metric], summary: ns, AllocsPerOp: &allocs}
	}
	set := func(name string, v float64) { metrics[name] = value{Value: v, Unit: units[name], summary: one(v)} }
	for _, d := range valueDrivers {
		set(d.metric, d.measure(seed))
	}
	retry, stale := contention(seed)
	set("core.retry_share", retry)
	set("core.stale_drop_share", stale)
	set("trace.tap_ns_per_frame", tapCost(seed))
	set("sweep.runner_speedup_w2", runnerSpeedup(seed))
}
