package host

import "time"

// Want is what a task's step asks of the scheduler next: CPU of a kind
// (UseCPU), a sleep on a wait key (SleepOnKey) or, the zero value, exit.
type Want struct {
	d    time.Duration
	kind CPUKind
	key  any
}

// UseCPU asks for d of CPU charged to kind, as Proc.Use would consume
// it. A zero d is served at once, without yielding.
func UseCPU(d time.Duration, kind CPUKind) Want {
	if kind == 0 {
		panic("host: UseCPU without a CPUKind would read as exit")
	}
	return Want{d: d, kind: kind}
}

// SleepOnKey asks to block until Host.Wakeup(key), as Proc.SleepOn does.
func SleepOnKey(key any) Want {
	if key == nil {
		panic("host: SleepOnKey(nil) would read as exit")
	}
	return Want{key: key}
}

// task is the continuation of a process that has no coroutine: where a
// coroutine process blocks inside Use or SleepOn, a task returns to the
// kernel and its resume event calls run again.
type task struct {
	step func() Want
	// parked and wakePending are sim.Proc's Park/Wake protocol, flag for
	// flag: a wake finds the task parked and schedules its resume event,
	// or is remembered and swallows the next park. Keeping the protocol
	// keeps the events: a task schedules exactly the kernel events a
	// coroutine running the same script would, in the same order.
	parked      bool
	wakePending bool
	// The Use in progress: CPU still owed, its bucket, and the slice of
	// it now elapsing (zero when none is: the task waits for the CPU).
	need  time.Duration
	slice time.Duration
	kind  CPUKind
	// resumeFn is run, boxed once: every resume event carries it.
	resumeFn func()
}

// SpawnTask creates a process without a coroutine and makes it runnable.
// Its body is step, run to completion in kernel event context each time
// the task is on the CPU with nothing pending; what step returns is what
// the task does next. To the scheduler a task is a Proc like any other
// — queued, dispatched, charged, rotated at quantum expiry, wake-boosted
// and listed in Procs — and it passes through the same instants as a
// coroutine looping `switch step()` over Use and SleepOn would, but a
// resume costs a callback instead of two coroutine switches. step must
// not block: the Proc's own Use and Sleep methods are not for tasks.
func (h *Host) SpawnTask(name string, step func() Want) *Proc {
	p := &Proc{h: h, name: name, state: stateRunnable}
	p.dispatchFn = func() { h.finishDispatch(p) }
	p.t = &task{step: step, resumeFn: p.run}
	h.procs = append(h.procs, p)
	h.k.After(0, "spawn", p.t.resumeFn)
	h.enqueue(p)
	h.maybeDispatch()
	return p
}

// wake is the one way the scheduler resumes a process. A task is resumed
// through an event, never inline: Wakeup and finishDispatch rely on the
// woken process not running before they return.
func (p *Proc) wake() {
	t := p.t
	switch {
	case t == nil:
		p.sp.Wake()
	case t.parked:
		t.parked = false
		p.h.k.After(0, "wake", t.resumeFn)
	case p.state != stateDead:
		t.wakePending = true
	}
}

// run advances a task until it has to wait for an event: Proc.Use and
// Proc.SleepOn with every blocking call turned into a return.
func (p *Proc) run() {
	h, t := p.h, p.t
	if t.slice > 0 {
		// Nothing wakes a task in mid-slice, so this is the slice's end.
		p.charge(t.slice, t.kind)
		p.quantumUsed += t.slice
		t.need -= t.slice
		t.slice = 0
		if p.quantumUsed >= h.pr.Quantum {
			p.quantumExpire()
		}
	}
	for {
		// The CPU comes first, also when nothing is owed: a Use that ended
		// exactly at a quantum expiry returns only once the task has been
		// dispatched again. A blocked task is never on the CPU, so this is
		// SleepOn's wait for its Wakeup as well. The wait is sim.Proc.Park:
		// a wake that came first is consumed instead.
		if h.cur != p {
			if !t.wakePending {
				t.parked = true
				return
			}
			t.wakePending = false
			continue
		}
		if t.need > 0 {
			if t.slice = min(t.need, h.pr.Quantum-p.quantumUsed); t.slice > 0 {
				h.k.After(t.slice, "wake", t.resumeFn)
				return
			}
			// The quantum was spent before the Use began (a boost).
			p.quantumExpire()
			continue
		}
		switch w := t.step(); {
		case w.kind != 0:
			t.need, t.kind = w.d, w.kind
		case w.key != nil:
			p.block(w.key)
		default:
			p.exit()
			return
		}
	}
}
