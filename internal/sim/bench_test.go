package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelDispatch measures heap-path event throughput: every
// event is scheduled a nonzero delay ahead, so each one transits the
// (time, seq) priority queue. This is the simulator's base speed limit.
func BenchmarkKernelDispatch(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(time.Microsecond, "tick", tick)
	k.Run()
}

// BenchmarkKernelDispatchImmediate measures the After(0) fast path:
// same-instant events that (post-refactor) bypass the heap through the
// FIFO run queue — the shape of wakeups, interrupts and work handoffs,
// the dominant event class in protocol-heavy runs.
func BenchmarkKernelDispatchImmediate(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(0, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(0, "tick", tick)
	k.Run()
}

// BenchmarkKernelDispatchDeep measures dispatch with ~4096 timers
// pending at all times — the cluster-scale shape (per-host retries,
// boosts, sleeps) where a binary heap pays O(log n) sift work per event
// and the timing wheel pays a depth-independent constant.
func BenchmarkKernelDispatchDeep(b *testing.B) {
	const depth = 4096
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n+depth <= b.N {
			k.After(depth*time.Microsecond, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= depth; i++ {
		k.After(time.Duration(i)*time.Microsecond, "tick", tick)
	}
	k.Run()
}

// BenchmarkKernelScheduleCancel measures the schedule-then-cancel churn
// of retry timers: the event never fires but must be queued, cancelled
// (dropping its closure immediately) and reclaimed on pop.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		ev := k.After(time.Millisecond, "retry", func() { panic("cancelled event ran") })
		ev.Cancel()
		if n < b.N {
			k.After(time.Microsecond, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(time.Microsecond, "tick", tick)
	k.Run()
}

// BenchmarkProcSleepSolo measures a process step with no switch: a lone
// sleeper holds the baton, pops its own resume event and returns from
// Sleep on the same stack.
func BenchmarkProcSleepSolo(b *testing.B) {
	k := New(1)
	k.Spawn("solo", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcPingPong measures a process step with exactly one
// hand-off: two sleepers on offset schedules, so each always pops the
// other's resume event and yields to RunUntil, which switches across.
func BenchmarkProcPingPong(b *testing.B) {
	k := New(1)
	for i := 0; i < 2; i++ {
		offset := time.Duration(i) * time.Microsecond
		k.Spawn("pingpong", func(p *Proc) {
			p.Sleep(offset)
			for i := 0; i < b.N/2; i++ {
				p.Sleep(2 * time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcFanResume measures the hand-off in the shape of a snooped
// broadcast: 96 processes sleep the same duration in a loop, so every
// resume crosses processes and each stack has gone cold by the time its
// turn comes round again — two-process PingPong keeps both in cache.
func BenchmarkProcFanResume(b *testing.B) {
	const procs = 96
	k := New(1)
	for i := 0; i < procs; i++ {
		k.Spawn("fan", func(p *Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcParkWake measures Park plus the Wake that resumes it,
// the wake coming from a timer callback — the sleeper/interrupt shape of
// the host layer. The parked process dispatches the timer itself, so
// after the first round the wake is a self-resume.
func BenchmarkProcParkWake(b *testing.B) {
	k := New(1)
	p := k.Spawn("parker", func(p *Proc) {
		for {
			p.Park("bench")
		}
	})
	n := 0
	var tick func()
	tick = func() {
		p.Wake()
		if n++; n < b.N {
			k.After(time.Microsecond, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(time.Microsecond, "tick", tick)
	k.Run()
	b.StopTimer()
	k.Shutdown()
}
