package sim

import (
	"fmt"
	"time"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked  // blocked in Park, waiting for Wake
	procWaiting // blocked in Sleep, timed resume scheduled
	procDead
)

// Proc is a simulated process: a goroutine whose execution is interleaved
// deterministically by the Kernel. All Proc methods except Wake must be
// called from within the process's own goroutine (i.e. from the function
// passed to Spawn). Wake must be called from kernel context — an event
// callback or another running process.
//
// A process blocked in Sleep or Park may still hold the baton (see
// Kernel.run): unrelated callbacks then run on its stack, below the
// blocked frame.
type Proc struct {
	k      *Kernel
	name   string
	state  procState
	resume chan struct{}
	// wakePending coalesces Wake calls that arrive while the process is
	// not parked; the next Park returns immediately.
	wakePending bool
	parkReason  any
	aborting    bool
	// wakeName is precomputed once so the park/wake hot path schedules
	// resume events without building a name string.
	wakeName string
}

// Spawn creates a process and schedules it to start at the current
// virtual time. fn runs on its own goroutine while that goroutine holds
// the kernel's baton and must use only this package's blocking
// primitives; after fn returns the goroutine dispatches until it can
// pass the baton on, then exits. A panic in fn, or in a callback the
// goroutine dispatches, is re-raised by RunUntil on its caller.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), wakeName: "wake " + name}
	k.procs = append(k.procs, p)
	go func() {
		defer func() {
			// A normal exit passed the baton on in run; a panic still
			// holds it and returns it to the root, with the value unless
			// it is Shutdown's unwinding.
			r := recover()
			if r == nil {
				return
			}
			p.state = procDead
			if _, abort := r.(abortSignal); !abort {
				k.panicVal = r
			}
			k.root.resume <- struct{}{}
		}()
		<-p.resume
		p.resumed()
		fn(p)
		p.state = procDead
		k.run(p)
	}()
	k.After(0, "spawn "+name, nil).proc = p
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// park blocks until the process's resume event is dispatched. The
// goroutine keeps the baton and dispatches events itself until then.
func (p *Proc) park() {
	p.k.run(p)
	p.resumed()
}

// resumed marks the process running, or unwinds it if the baton came
// from Shutdown.
func (p *Proc) resumed() {
	if p.aborting {
		panic(abortSignal{})
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
	p.k.After(d, p.wakeName, nil).proc = p
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
		p.k.After(0, p.wakeName, nil).proc = p
	default:
		p.wakePending = true
	}
}

// Dead reports whether the process function has returned.
func (p *Proc) Dead() bool { return p.state == procDead }

func (p *Proc) String() string {
	return fmt.Sprintf("proc %q", p.name)
}
