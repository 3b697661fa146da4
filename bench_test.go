// Benchmarks regenerating every table and figure of the paper's
// evaluation as testing.B targets. Each benchmark runs the deterministic
// simulation at a reduced counter target and reports the paper's metrics
// per addition via b.ReportMetric:
//
//	sim-ms/add    simulated wall-clock milliseconds per addition
//	loss/win      the paper's Losses/Wins ratio
//	lat-ms        mean page-fault latency (simulated milliseconds)
//	net-B/s       network load, bytes per simulated second
//	ctx/add       context switches per addition
//
// Absolute Go-side ns/op numbers measure the simulator, not Mether; the
// reported metrics are the reproduction's outputs. cmd/metherbench runs
// the same experiments at full scale (1024) with paper-vs-measured tables.
package mether_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mether"
	"mether/internal/core"
	"mether/internal/host"
	"mether/internal/memnet"
	"mether/internal/proto"
	"mether/internal/protocols"
	"mether/internal/sim"
	"mether/internal/solver"
	"mether/internal/stats"
	"mether/internal/sweep"
	"mether/internal/vm"
	"mether/internal/workload"
	"mether/pipe"
)

const benchTarget = 128

// reportCounter attaches the figure metrics to a benchmark.
func reportCounter(b *testing.B, r workload.Report) {
	b.Helper()
	if r.Ops > 0 {
		b.ReportMetric(float64(r.Wall.Milliseconds())/float64(r.Ops), "sim-ms/add")
		b.ReportMetric(r.CtxPerOp(), "ctx/add")
	}
	b.ReportMetric(r.LossWin(), "loss/win")
	b.ReportMetric(float64(r.LatMean.Microseconds())/1000, "lat-ms")
	b.ReportMetric(r.NetBytesPerSec, "net-B/s")
}

// runProtocolBench runs a counter configuration (and the error of its
// making) b.N times.
func runProtocolBench(b *testing.B, cfg protocols.Config, err error) {
	b.Helper()
	var last workload.Report
	for i := 0; err == nil && i < b.N; i++ {
		var wl workload.Workload
		if wl, err = protocols.Counter(cfg); err == nil {
			last, err = cfg.Run(wl)
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	reportCounter(b, last)
}

// runScenarioBench runs a sweep scenario b.N times and attaches the
// figure metrics of its result.
func runScenarioBench(b *testing.B, sc sweep.Scenario) {
	b.Helper()
	var r sweep.Result
	for i := 0; i < b.N; i++ {
		if r = sc.Run(); r.Err != "" {
			b.Fatal(r.Err)
		}
	}
	if r.Ops > 0 {
		b.ReportMetric(float64(r.WallNS)/1e6/float64(r.Ops), "sim-ms/add")
		b.ReportMetric(float64(r.CtxSwitches)/float64(r.Ops), "ctx/add")
	}
	b.ReportMetric(r.LossWin, "loss/win")
	b.ReportMetric(float64(r.LatMeanNS)/1e6, "lat-ms")
	b.ReportMetric(r.NetBytesPerSec, "net-B/s")
}

// BenchmarkBaselineSingle reproduces the Section-4 text: one process
// counting alone (~50 µs per increment on the era hardware).
func BenchmarkBaselineSingle(b *testing.B) {
	runProtocolBench(b, protocols.Config{Protocol: protocols.BaselineSingle, Target: 1024, Options: workload.Options{Seed: 1}}, nil)
}

// BenchmarkBaselineLocalPair reproduces the 81 s / 37 s CPU two-process
// local baseline (quantum thrashing).
func BenchmarkBaselineLocalPair(b *testing.B) {
	runProtocolBench(b, protocols.Config{Protocol: protocols.BaselineLocalPair, Target: benchTarget, Options: workload.Options{Seed: 1}}, nil)
}

// BenchmarkFigures regenerates Figures 4-9 from the sweep engine's
// figure definitions, so the benchmarks, cmd/metherbench and
// cmd/methersweep all measure the exact same configurations. The
// degenerate Figure-6 run is capped at bench scale (it never finishes).
func BenchmarkFigures(b *testing.B) {
	for _, sc := range sweep.FigureScenarios(sweep.Options{Target: benchTarget, Seed: 1}) {
		sc := sc
		if sc.Protocol == protocols.P3DisjointRO {
			sc.Cap = 20 * time.Second
		}
		b.Run(sc.Name, func(b *testing.B) {
			runScenarioBench(b, sc)
		})
	}
}

// BenchmarkFig7Hysteresis sweeps the Figure-7 purge period and the
// paper's rejected sleep-based fix, via the sweep definitions.
func BenchmarkFig7Hysteresis(b *testing.B) {
	for _, sc := range sweep.HysteresisSweep(sweep.Options{Target: benchTarget, Seed: 1}) {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			runScenarioBench(b, sc)
		})
	}
}

// BenchmarkSolverSpeedup regenerates the Section-3 claim: near-linear
// speedup of the csend/crecv sparse solver up to four processors.
func BenchmarkSolverSpeedup(b *testing.B) {
	for _, hosts := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("procs=%d", hosts), func(b *testing.B) {
			var last solver.Report
			for i := 0; i < b.N; i++ {
				r, err := solver.RunDistributed(solver.Config{N: 100_000, Hosts: hosts, Sweeps: 6, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Speedup, "speedup")
			b.ReportMetric(last.Efficient*100, "efficiency-%")
			b.ReportMetric(float64(last.Wall.Milliseconds()), "sim-ms")
		})
	}
}

// BenchmarkMemNetComparison regenerates the cross-system claim: the same
// protocol shapes on the hardware DSM rank in the same order.
func BenchmarkMemNetComparison(b *testing.B) {
	for _, s := range []memnet.Shape{memnet.SharedChunk, memnet.DisjointSpin, memnet.DisjointBlocked} {
		b.Run(s.String(), func(b *testing.B) {
			var last memnet.Report
			for i := 0; i < b.N; i++ {
				r, err := memnet.RunCounter(memnet.Config{Shape: s, Target: 1024, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.LossWin, "loss/win")
			b.ReportMetric(float64(last.Fetches), "ring-fetches")
			b.ReportMetric(float64(last.RingBytes), "ring-bytes")
			b.ReportMetric(float64(last.Wall.Microseconds())/float64(last.Additions), "sim-us/add")
		})
	}
}

// BenchmarkShortPageSizeSweep is the ablation behind the short-page
// design discussion ("we could make the short pages larger with very
// little impact on performance; making them smaller would not be
// worthwhile"): per-message cost through the pipe library as payload
// size crosses the short-page boundary into full-page territory.
func BenchmarkShortPageSizeSweep(b *testing.B) {
	for _, size := range []int{1, 4, 8, 12, 64, 512, 2048, 8000} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			var perMsg time.Duration
			for i := 0; i < b.N; i++ {
				perMsg = pipeRoundTrip(b, size, 8)
			}
			b.ReportMetric(float64(perMsg.Microseconds())/1000, "sim-ms/msg")
		})
	}
}

// pipeRoundTrip measures simulated time per message for count messages
// of the given size.
func pipeRoundTrip(b *testing.B, size, count int) time.Duration {
	b.Helper()
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 8, Seed: 1})
	defer w.Shutdown()
	cap, err := pipe.Create(w, "bench", 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA5}, size)
	w.Spawn(0, "tx", func(env *mether.Env) {
		p, err := pipe.Open(env, cap, 0)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < count; i++ {
			if err := p.Send(uint32(i), payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	w.Spawn(1, "rx", func(env *mether.Env) {
		p, err := pipe.Open(env, cap, 1)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < count; i++ {
			if _, err := p.Recv(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	end := w.RunUntil(10 * time.Minute)
	return end / time.Duration(count)
}

// BenchmarkAblationWakeBoost quantifies the scheduler design choice
// DESIGN.md calls out: how the SunOS wakeup priority boost affects the
// paper's protocols (0 = pure round robin).
func BenchmarkAblationWakeBoost(b *testing.B) {
	for _, boost := range []time.Duration{0, 2 * time.Millisecond, 15 * time.Millisecond} {
		b.Run(fmt.Sprintf("boost=%v", boost), func(b *testing.B) {
			hp := host.DefaultParams()
			hp.WakeBoostDelay = boost
			runProtocolBench(b, protocols.Config{
				Protocol: protocols.P2ShortPage, Target: benchTarget,
				Options: workload.Options{Seed: 1, HostParams: hp},
			}, nil)
		})
	}
}

// BenchmarkAblationKernelServer measures the paper's proposed fix for
// its final bottleneck ("the context switches required to receive a new
// page... will be solved by ... a migration of the user level server
// code to the kernel") via the sweep engine's kernel-ablation grid.
func BenchmarkAblationKernelServer(b *testing.B) {
	for _, sc := range sweep.KernelAblation(sweep.Options{Target: benchTarget, Seed: 1}) {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			runScenarioBench(b, sc)
		})
	}
}

// BenchmarkSweepEngine measures the sweep engine itself: the smoke grid
// through the bounded worker pool, reporting achieved parallel speedup
// over serial-equivalent execution.
func BenchmarkSweepEngine(b *testing.B) {
	scs, err := sweep.Grid("smoke", sweep.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var tm sweep.Timing
	for i := 0; i < b.N; i++ {
		_, tm = sweep.Runner{}.Run("smoke", scs)
	}
	b.ReportMetric(tm.Speedup, "speedup")
	b.ReportMetric(float64(tm.Workers), "workers")
}

// BenchmarkAblationRetryTimeout sweeps the demand-request retransmit
// timeout under loss, the knob behind the reliability discussion.
func BenchmarkAblationRetryTimeout(b *testing.B) {
	for _, rt := range []time.Duration{50 * time.Millisecond, 250 * time.Millisecond, time.Second} {
		b.Run(fmt.Sprintf("timeout=%v", rt), func(b *testing.B) {
			runProtocolBench(b, protocols.Config{
				Protocol: protocols.P2ShortPage, Target: benchTarget,
				Options: workload.Options{Seed: 1, LossRate: 0.01, RetryTimeout: rt},
			}, nil)
		})
	}
}

// BenchmarkPipeThroughput measures message throughput through the §5
// pipe library for the workload mixes the paper's applications exhibit:
// all-control (short path), all-bulk (full pages) and the bimodal mix.
func BenchmarkPipeThroughput(b *testing.B) {
	dists := []workload.SizeDist{
		workload.Fixed{Size: 8},
		workload.Fixed{Size: 7000},
		workload.Bimodal{Small: 8, Large: 7000, LargeEvery: 8},
	}
	for _, d := range dists {
		b.Run(d.Name(), func(b *testing.B) {
			cfg := workload.PipeConfig{Dist: d, Messages: 24, Options: workload.Options{Seed: 1}}
			var last workload.Report
			for i := 0; i < b.N; i++ {
				wl, err := workload.Pipe(cfg)
				if err == nil {
					last, err = cfg.Run(wl)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.Rate(last.Ops, last.Wall), "sim-msg/s")
			b.ReportMetric(last.NetBytesPerSec, "wire-B/s")
		})
	}
}

// BenchmarkFanoutScaling measures the broadcast-vs-demand reader scaling
// experiment (one writer, N readers).
func BenchmarkFanoutScaling(b *testing.B) {
	for _, mode := range []protocols.FanoutMode{protocols.FanoutDataDriven, protocols.FanoutDemand} {
		for _, readers := range []int{2, 8} {
			b.Run(fmt.Sprintf("%v/readers=%d", mode, readers), func(b *testing.B) {
				cfg := protocols.FanoutConfig{Mode: mode, Readers: readers, Updates: 16, Options: workload.Options{Seed: 1}}
				var last workload.Report
				for i := 0; i < b.N; i++ {
					wl, err := protocols.Fanout(cfg)
					if err == nil {
						last, err = cfg.Run(wl)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(stats.Ratio(last.Net.Frames, last.Ops), "pkts/update")
				b.ReportMetric(last.Host0.Total().Seconds()*1000, "writer-cpu-ms")
			})
		}
	}
}

// --- microbenchmarks of the substrates themselves ---

// BenchmarkAddrCodec measures the Figure-2 view-bit arithmetic.
func BenchmarkAddrCodec(b *testing.B) {
	var sink core.Addr
	for i := 0; i < b.N; i++ {
		a := core.NewAddr(vm.PageID(i%1024), i%vm.PageSize)
		sink = a.Short().DataDriven().Demand().Full()
	}
	_ = sink
}

// BenchmarkProtoEncodeShort measures wire-format encoding of the 32-byte
// data packet, the hot packet of the good protocols.
func BenchmarkProtoEncodeShort(b *testing.B) {
	pkt := proto.Packet{Type: proto.TypeData, Page: 1, Short: true, OwnerTo: proto.NoOwner, Gen: 7, Data: make([]byte, vm.ShortSize)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Encode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoDecodeShort measures the receive path's decode.
func BenchmarkProtoDecodeShort(b *testing.B) {
	enc, err := proto.Encode(proto.Packet{Type: proto.TypeData, Page: 1, Short: true, OwnerTo: proto.NoOwner, Data: make([]byte, vm.ShortSize)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventThroughput measures raw event-queue throughput, the
// simulator's own speed limit.
func BenchmarkSimEventThroughput(b *testing.B) {
	k := sim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, "tick", tick)
		}
	}
	k.After(time.Microsecond, "tick", tick)
	k.Run()
}
