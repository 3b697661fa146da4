//go:build go1.23

// The tag is for iter.Pull: go.mod stays at go 1.21 (the nested bench
// module replaces this one), so an older toolchain must fail here.

package sim

import (
	"fmt"
	"iter"
	"time"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked   // blocked in Park, waiting for Wake
	procWaiting  // blocked in Sleep, timed resume scheduled
	procAwaiting // blocked in Await, waiting for a callback's Resume
	procDead
)

// Proc is a simulated process: a coroutine whose execution is interleaved
// deterministically by the Kernel. All Proc methods except Wake and
// Resume must be called from within the process itself (i.e. from the
// function passed to Spawn). Wake must be called from kernel context — an
// event callback or another running process — and Resume from a callback.
//
// A process blocked in Sleep, Park or Await may still hold the baton (see
// Proc.park): unrelated callbacks then run on its stack, below the
// blocked frame.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	// wakePending coalesces Wake calls that arrive while the process is
	// not parked; the next Park returns immediately.
	wakePending bool
	parkReason  any
	// The coroutine, from iter.Pull: RunUntil switches to the process with
	// next, the process switches back with yield (false once stopped).
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Spawn creates a process and schedules it to start at the current
// virtual time. fn runs on a coroutine of its own while that coroutine
// holds the kernel's baton and must use only this package's blocking
// primitives; after fn returns the coroutine dispatches until the baton
// is someone else's, then ends. A panic or runtime.Goexit in fn, or in a
// callback the coroutine dispatches, comes out of RunUntil.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	k.procs = append(k.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		// Shutdown's unwinding ends here; iter.Pull carries the rest.
		defer func() {
			if r := recover(); r != nil && r != (abortSignal{}) {
				panic(r)
			}
		}()
		p.yield = yield
		p.state = procRunning
		fn(p)
		p.state = procDead
		p.k.handoff = p.k.dispatch()
	})
	k.After(0, "spawn", nil).proc = p
	return p
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park blocks until the process's resume event is dispatched. The
// process keeps the baton and dispatches on its own stack; if the next
// holder is someone else it names them in k.handoff and yields to
// RunUntil until a later dispatcher pops its resume event.
func (p *Proc) park() {
	k := p.k
	if next := k.dispatch(); next != p {
		k.handoff = next
		if !p.yield(struct{}{}) {
			panic(abortSignal{})
		}
	}
	p.state = procRunning
}

// Sleep blocks the process for virtual duration d. Wake calls received
// while sleeping are remembered and cause the next Park to return
// immediately, but do not shorten the sleep.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.state = procWaiting
	p.k.After(d, "wake", nil).proc = p
	p.park()
}

// Park blocks until another component calls Wake. The reason — any
// value; typically a string or the wait key the caller is blocked on —
// is retained for debugger inspection and formatted only on demand, so
// the hot path never pays for building a diagnostic string. If a Wake
// arrived since the last Park returned, Park consumes it and returns
// immediately.
func (p *Proc) Park(reason any) {
	if p.wakePending {
		p.wakePending = false
		return
	}
	p.parkReason = reason
	p.state = procParked
	p.park()
}

// Await blocks until the callback of some event calls Resume. Like Sleep
// and Park it keeps the baton and dispatches on the process's own stack,
// but it schedules nothing: the caller has arranged for that event. A
// non-nil reason lists the process in Idle, as Park's does; one whose
// wait a timed event bounds passes nil. Wake does not end an Await.
func (p *Proc) Await(reason any) {
	p.parkReason = reason
	p.state = procAwaiting
	p.park()
}

// Resume, called from an event's own callback, ends p's Await in that
// same event: once the callback has returned and its event is released,
// p holds the baton — a plain return when the dispatcher is p itself, as
// for its own wake event, otherwise one hand-off. No event is scheduled,
// so the dispatch count, the sequence counter and every AfterCoalesced
// merge stay where a callback doing p's work itself would leave them. A
// callback inside a coalesced event may Resume too: the callbacks after
// it run when p next blocks, before any other event. A dead p is
// ignored; one not in Await, or a second Resume in one callback, is the
// caller's bug.
func (p *Proc) Resume() {
	switch {
	case p.state == procDead:
	case p.state != procAwaiting || p.k.handback != nil:
		panic(fmt.Sprintf("sim: Resume of %v, which is not in Await, or second Resume in one callback", p))
	default:
		p.k.handback = p
	}
}

// Wake makes a parked process runnable at the current virtual time. If
// the process is not parked the wake is remembered (coalesced) and the
// next Park returns immediately. Waking a dead process is a no-op.
// Wake must be called from kernel context, never from the woken
// process itself.
func (p *Proc) Wake() {
	switch p.state {
	case procDead:
	case procParked:
		p.state = procWaiting // resume already scheduled below
		p.k.After(0, "wake", nil).proc = p
	default:
		p.wakePending = true
	}
}

// Dead reports whether the process function has returned.
func (p *Proc) Dead() bool { return p.state == procDead }

func (p *Proc) String() string {
	return fmt.Sprintf("proc %q", p.name)
}
