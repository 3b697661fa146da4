package host

import "time"

// Want is what a task's step asks of the scheduler next: CPU of a kind
// (UseCPU), a sleep on a wait queue (WaitOn) or, the zero value, exit.
type Want struct {
	d    time.Duration
	kind CPUKind
	q    *WaitQ
}

// UseCPU asks for d of CPU charged to kind, as Proc.Use would consume
// it. A zero d is served at once, without yielding.
func UseCPU(d time.Duration, kind CPUKind) Want {
	if kind == 0 {
		panic("host: UseCPU without a CPUKind would read as exit")
	}
	return Want{d: d, kind: kind}
}

// WaitOn asks to block until Host.WakeupQ(q), as Proc.SleepOnQ does.
func WaitOn(q *WaitQ) Want {
	if q == nil {
		panic("host: WaitOn(nil) would read as exit")
	}
	return Want{q: q}
}

// SpawnTask creates a process without a coroutine and makes it runnable.
// Its body is step, run to completion in kernel event context each time
// the task is on the CPU with nothing pending; what step returns is what
// the task does next. To the scheduler a task is a Proc like any other
// — queued, dispatched, charged, rotated at quantum expiry, wake-boosted
// and listed in Procs — and it passes through the same instants as a
// coroutine looping `switch step()` over Use and SleepOnQ would, but a
// resume costs a callback instead of two coroutine switches. step must
// not block: the Proc's own Use and Sleep methods are not for tasks.
func (h *Host) SpawnTask(name string, step func() Want) *Proc {
	p := new(Proc)
	h.StartTask(p, name, step)
	return p
}

// StartTask is SpawnTask in place: p, which must be the zero Proc,
// becomes the task. A world keeps its servers' tasks in one slice, in
// host order.
func (h *Host) StartTask(p *Proc, name string, step func() Want) {
	p.h, p.name, p.state, p.step = h, name, stateRunnable, step
	p.resumeFn = p.resume
	h.procs = append(h.procs, p)
	h.k.AfterCoalesced(0, "spawn", p.resumeFn)
	h.enqueue(p)
	h.maybeDispatch()
}
