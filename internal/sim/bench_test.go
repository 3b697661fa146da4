package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelDispatch measures timed-event throughput: every event
// is scheduled a nonzero delay ahead, so each one is filed in the timing
// wheel and found again by the cursor. With one event pending this is
// the simulator's base speed limit.
func BenchmarkKernelDispatch(b *testing.B) {
	chain(b, func(k *Kernel, tick func()) { k.After(time.Microsecond, "tick", tick) })
}

// chain times b.N events on a kernel, each filing the next with file, as
// the first is filed.
func chain(b *testing.B, file func(k *Kernel, tick func())) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			file(k, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	file(k, tick)
	k.Run()
}

// BenchmarkKernelDispatchImmediate measures the After(0) fast path:
// same-instant events that bypass the wheel through the FIFO run
// queue — the shape of wakeups, interrupts and work handoffs, the
// dominant event class in protocol-heavy runs.
func BenchmarkKernelDispatchImmediate(b *testing.B) {
	chain(b, func(k *Kernel, tick func()) { k.After(0, "tick", tick) })
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

// armTimers arms count self-re-arming timers on k, timer i first due at
// first(i) and from then on every period(i), which stop re-arming once n
// events have fired among them. The caller runs the kernel.
func armTimers(k *Kernel, n, count int, first, period func(i int) time.Duration) {
	fired := 0
	for i := 0; i < count; i++ {
		d := period(i)
		var tick func()
		tick = func() {
			if fired++; fired+count <= n {
				k.After(d, "tick", tick)
			}
		}
		k.After(first(i), "tick", tick)
	}
}

// spreadTimers is the two-workstation shape: three timers pending, on
// periods (a poll, a quantum slice, a retry) that carry most delays
// across a 2^16 ns boundary, so each is filed two or three levels up and
// almost always alone in its bucket.
func spreadTimers(k *Kernel, n int) {
	periods := [...]time.Duration{37 * time.Microsecond, 113 * time.Microsecond, time.Millisecond}
	period := func(i int) time.Duration { return periods[i] }
	armTimers(k, n, len(periods), period, period)
}

// burstTimers is the snooped-broadcast shape: 96 timers on one 100 us
// period at the given number of phases 1 us apart, so the whole burst
// shares a level-2 bucket and the timers of one phase share an instant.
func burstTimers(k *Kernel, n, phases int) {
	armTimers(k, n, 96,
		func(i int) time.Duration { return 100*time.Microsecond + time.Duration(i%phases)*time.Microsecond },
		func(int) time.Duration { return 100 * time.Microsecond })
}

// BenchmarkKernelDispatchSpread measures dispatch of the few, far-apart
// timers of a two-host world (see spreadTimers): the cost of finding the
// one occupied bucket and jumping the cursor to its event.
func BenchmarkKernelDispatchSpread(b *testing.B) {
	k := New(1)
	spreadTimers(k, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelDispatchBurst measures dispatch of 96 timers that share
// a coarse bucket at eight instants (see burstTimers): one walk for the
// minimum, one phase staged, the other seven filed again once.
func BenchmarkKernelDispatchBurst(b *testing.B) {
	k := New(1)
	burstTimers(k, b.N, 8)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelCoalescedFanout measures a lock-step instant, per
// callback: 95 adjacent AfterCoalesced calls at one deadline — a
// broadcast's deliveries on a 96-port fabric — run as one kernel event,
// the last callback filing the next fan-out.
func BenchmarkKernelCoalescedFanout(b *testing.B) {
	const fanout = 95
	k := New(1)
	n := 0
	var cb func()
	fan := func() {
		for i := 0; i < fanout; i++ {
			k.AfterCoalesced(time.Microsecond, "deliver", cb)
		}
	}
	cb = func() {
		if n++; n%fanout == 0 && n < b.N {
			fan()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	fan()
	k.Run()
}

// BenchmarkKernelCoalescedMiss measures AfterCoalesced when nothing
// merges: every call has a deadline of its own, so each files a plain
// event — BenchmarkKernelDispatch through the coalescing check.
func BenchmarkKernelCoalescedMiss(b *testing.B) {
	chain(b, func(k *Kernel, tick func()) { k.AfterCoalesced(time.Microsecond, "tick", tick) })
}

// BenchmarkKernelContinue measures a lone tick that continues: with
// nothing else pending, each next tick would be the next event, so
// Continue runs it inline — the slice end of a process alone in the
// kernel. Against BenchmarkKernelDispatch it is the schedule and pop
// saved.
func BenchmarkKernelContinue(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		for n++; n < b.N; n++ {
			if !k.Continue(time.Microsecond) {
				k.After(time.Microsecond, "tick", tick)
				return
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(time.Microsecond, "tick", tick)
	k.Run()
}

// BenchmarkKernelContinueMiss measures Continue's refusal: two ticks 1 µs
// apart on a 2 µs period, so each finds the other's event due first and
// files its next with AfterCoalesced — BenchmarkKernelCoalescedMiss
// with the question asked in front.
func BenchmarkKernelContinueMiss(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		if n++; n >= b.N {
			return
		}
		if k.Continue(2 * time.Microsecond) {
			b.Fatal("Continue said yes with the other tick due first")
		}
		k.AfterCoalesced(2*time.Microsecond, "tick", tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.AfterCoalesced(time.Microsecond, "tick", tick)
	k.AfterCoalesced(2*time.Microsecond, "tick", tick)
	k.Run()
}

// BenchmarkKernelScheduleCancel measures the schedule-then-cancel churn
// of retry timers: the event never fires but must be queued, cancelled
// (dropping its closure immediately) and reclaimed on pop.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	chain(b, func(k *Kernel, tick func()) {
		k.After(time.Millisecond, "retry", func() { panic("cancelled event ran") }).Cancel()
		k.After(time.Microsecond, "tick", tick)
	})
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
