package protocols

import (
	"runtime"
	"testing"

	"mether/internal/workload"
)

// benchCounterRun runs one full counter experiment per iteration — the
// end-to-end hot path through all four layers (sim kernel, host
// scheduler, ethernet, core driver/server) — and reports allocations
// per simulated event, the tentpole metric the zero-allocation refactor
// is measured by.
func benchCounterRun(b *testing.B, cfg Config) {
	b.Helper()
	var events uint64
	var ms0, ms1 runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := count(b, cfg)
		if r.DNF {
			b.Fatal("counter run did not finish")
		}
		events = r.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if events > 0 {
		allocsPerRun := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
		b.ReportMetric(allocsPerRun/float64(events), "allocs/event")
		b.ReportMetric(float64(events), "events/run")
	}
}

// BenchmarkCounterRun is the P5 (final protocol) run: stationary pages,
// one purge broadcast per increment.
func BenchmarkCounterRun(b *testing.B) {
	benchCounterRun(b, Config{Protocol: P5Final, Target: 128, Options: workload.Options{Seed: 1}})
}

// BenchmarkCounterRunShortPage is the P2 short-page run: every fault
// moves ownership (the request/grant shape rather than P5's broadcasts).
func BenchmarkCounterRunShortPage(b *testing.B) {
	benchCounterRun(b, Config{Protocol: P2ShortPage, Target: 128, Options: workload.Options{Seed: 1}})
}
