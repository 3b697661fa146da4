package host

import (
	"testing"
	"time"

	"mether/internal/sim"
)

// benchRun times the run of a host whose processes spawn starts.
func benchRun(b *testing.B, spawn func(k *sim.Kernel, h *Host)) {
	k := sim.New(1)
	spawn(k, New(k, 0, "bench", DefaultParams()))
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkHostSleepWake measures the sleep/wake round trip — the shape
// of every fault wait and server doze in the Mether protocols: a
// process blocks on a wait queue, a kernel event wakes it, the scheduler
// dispatches it with a wake boost armed. Steady state must not
// allocate: the queue is linked through the sleeper, and boost timers
// are pooled.
func BenchmarkHostSleepWake(b *testing.B) {
	benchSleepWake(b, func(h *Host, q *WaitQ, n *int) {
		h.Spawn("sleeper", func(p *Proc) {
			for *n < b.N {
				*n++
				p.SleepOnQ(q)
			}
		})
	})
}

// BenchmarkHostTaskSleepWake is the same with the sleeper a task: the
// same kernel events (wake, dispatch, wake) with a callback where the
// coroutine sleeper costs a switch in and a switch out.
func BenchmarkHostTaskSleepWake(b *testing.B) {
	benchSleepWake(b, func(h *Host, q *WaitQ, n *int) {
		h.SpawnTask("sleeper", func() Want {
			if *n >= b.N {
				return Want{}
			}
			*n++
			return WaitOn(q)
		})
	})
}

// benchSleepWake runs a sleeper that counts its b.N sleeps in n against
// a waker firing every 50 µs.
func benchSleepWake(b *testing.B, spawn func(h *Host, q *WaitQ, n *int)) {
	benchRun(b, func(k *sim.Kernel, h *Host) {
		var q WaitQ
		n := 0
		var wake func()
		wake = func() {
			h.WakeupQ(&q)
			if n < b.N {
				k.After(50*time.Microsecond, "waker", wake)
			}
		}
		spawn(h, &q, &n)
		k.After(50*time.Microsecond, "waker", wake)
	})
}

// BenchmarkHostWakeupMiss measures the wake nobody waits for while the
// host does have a sleeper elsewhere — a snooped transit of one page
// with the application asleep in a fault on another, twice per frame on
// the receive path. It is an inlined load and compare; it was a map
// probe with interface hashing.
func BenchmarkHostWakeupMiss(b *testing.B) {
	k := sim.New(1)
	h := New(k, 0, "bench", DefaultParams())
	var qa, qb WaitQ
	h.Spawn("sleeper", func(p *Proc) { p.SleepOnQ(&qa) })
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.WakeupQ(&qb)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkHostUseWhile measures one look of a poll run by the scheduler:
// the timed event that ends a 50 µs slice, its accounting and the
// predicate, all in one kernel callback with the polling coroutine
// asleep throughout. It is what a spinning client costs the engine per
// look, against a coroutine resume per look before UseWhile.
func BenchmarkHostUseWhile(b *testing.B) {
	benchRun(b, func(k *sim.Kernel, h *Host) {
		n := 0
		h.Spawn("poller", func(p *Proc) {
			p.UseWhile(50*time.Microsecond, CPUUser, func() bool {
				n++
				return n < b.N
			})
		})
	})
}

// BenchmarkHostQuantumRotation measures two compute-bound processes
// alternating whole quanta — the paper's mutual-spinner baseline. Every
// quantum expiry re-enqueues, context-switches and dispatches through
// precomputed closures, so steady state must not allocate.
func BenchmarkHostQuantumRotation(b *testing.B) {
	benchRun(b, func(k *sim.Kernel, h *Host) {
		per := h.Params().Quantum * time.Duration(b.N/2+1)
		for i := 0; i < 2; i++ {
			h.Spawn("spinner", func(p *Proc) { p.UseUser(per) })
		}
	})
}

// BenchmarkHostTaskUse measures one step of a task that computes — the
// server's charge for a snooped frame: one timed kernel event whose
// callback accounts the slice and asks the step for the next.
func BenchmarkHostTaskUse(b *testing.B) {
	benchRun(b, func(k *sim.Kernel, h *Host) {
		n := 0
		h.SpawnTask("worker", func() Want {
			if n >= b.N {
				return Want{}
			}
			n++
			return UseCPU(50*time.Microsecond, CPUSys)
		})
	})
}
