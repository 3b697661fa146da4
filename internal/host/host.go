// Package host simulates a SunOS-4.0-era workstation: one CPU, a
// round-robin time-slice scheduler, context-switch and trap costs, and
// per-process user/system CPU accounting.
//
// The scheduler model is the load-bearing part of the Mether reproduction.
// The paper's central performance phenomenon is that a client process
// spinning on memory starves the user-level Mether server of CPU: a
// runnable server must wait for the spinner's quantum to expire, which is
// what stretches page-fault latencies to tens of milliseconds and what the
// later protocols avoid by blocking instead of spinning. Processes here
// are preempted only at quantum expiry, or sooner for a process woken
// from a sleep (Params.WakeBoostDelay), which matches the behaviour the
// paper observed for compute-bound processes.
//
// A process is a sim coroutine running a function (Spawn) or a task, a
// step function called from kernel events (SpawnTask, task.go): one state
// machine (Proc.advance) schedules both, through the same kernel events.
// A task is the cheaper to resume, so the Mether server, which wakes once
// per network frame, is one; and a coroutine that spins hands its loop to
// the scheduler (UseWhile) and sleeps until the spin has an outcome. A
// spin's looks are one run in the kernel's repeat lane (sim.Kernel.Repeat,
// poll.go): its predicate is pure, so between two ordinary events every
// look sees what the first saw, and the scheduler charges the looks the
// kernel skips — CPU, busy time, quantum — in bulk. Only the look that ends
// the spin runs as a kernel callback.
package host

import (
	"fmt"
	"time"

	"mether/internal/sim"
)

// CPUKind selects the accounting bucket that a slice of CPU time is
// charged to, mirroring the user/sys split the paper reports.
type CPUKind uint8

const (
	// CPUUser is time spent in application code (spins, increments).
	CPUUser CPUKind = iota + 1
	// CPUSys is time spent in the kernel or the Mether user-level server
	// on the process's behalf (traps, syscalls, packet handling).
	CPUSys
)

// Params holds the host cost model. All constants were calibrated against
// the paper's Figures 4-9; see EXPERIMENTS.md for the calibration notes.
type Params struct {
	// Quantum is the round-robin time slice. A runnable process must wait
	// for the current process's quantum to expire before it is dispatched
	// (unless the CPU is idle).
	Quantum time.Duration
	// CtxSwitch is the direct cost of a context switch, charged as system
	// time to the incoming process.
	CtxSwitch time.Duration
	// DispatchLatency is extra scheduler latency on every dispatch.
	DispatchLatency time.Duration
	// TrapCost is the kernel entry/exit cost of a page-fault trap.
	TrapCost time.Duration
	// SyscallCost is the kernel entry/exit cost of a system call.
	SyscallCost time.Duration
	// InterruptCost is the delay between a NIC receive and the wakeup of
	// the process sleeping on it (interrupt + protocol input processing).
	InterruptCost time.Duration
	// WakeBoostDelay models the SunOS wakeup priority boost: a process
	// woken from a sleep preempts a CPU-bound process after roughly this
	// delay (priority recomputation at clock ticks), rather than waiting
	// for full quantum expiry. Two processes that never sleep (mutual
	// spinners) still alternate whole quanta. Zero disables the boost.
	WakeBoostDelay time.Duration
}

// DefaultParams returns the calibrated Sun-3/50-class cost model. The
// quantum and context-switch costs are fitted to the paper's two-process
// local baseline (81 s wall, ~37 s CPU per process for 1024 additions:
// one quantum plus one switch per addition) and its remark that a context
// switch "as a rule of thumb takes a few milliseconds".
func DefaultParams() Params {
	return Params{
		Quantum:         70 * time.Millisecond,
		CtxSwitch:       3 * time.Millisecond,
		DispatchLatency: 300 * time.Microsecond,
		TrapCost:        800 * time.Microsecond,
		SyscallCost:     400 * time.Microsecond,
		InterruptCost:   300 * time.Microsecond,
		WakeBoostDelay:  15 * time.Millisecond,
	}
}

type procState uint8

const (
	stateRunnable procState = iota + 1
	stateRunning
	stateBlocked
	stateDead
)

// trace, when set, receives one line per scheduling event (dispatches,
// quantum expiries, boost preemptions): the lines the scheduler spec
// test holds against its reference, and nothing else sets it. Call
// sites guard with `if trace != nil`: a bare variadic call boxes its
// arguments even when tracing is off, which was the host layer's last
// per-dispatch allocation.
var trace func(format string, args ...any)

// Host is one simulated workstation.
type Host struct {
	k    *sim.Kernel
	id   int
	name string
	pr   Params

	cur *Proc
	// runq is drained via runqHead instead of re-slicing so the backing
	// array is reused once the queue empties (an advancing-front slice
	// sheds capacity and reallocates on every wrap).
	runq     []*Proc
	runqHead int
	// The context switch in progress (one at a time) and its event callback.
	next        *Proc
	dispatchFn  func()
	ctxSwitches uint64
	// keyed is the directory behind SleepOn/Wakeup's keys: one wait queue
	// per key ever slept on. Made by the first SleepOn, so a host whose
	// waiters name their queues (the Mether driver's all do) has none.
	keyed map[any]*WaitQ
	procs []*Proc
	busy  time.Duration // total CPU busy time
	// lane is the looks' run in the kernel's lane of the poll on the CPU:
	// one slice elapses at a time, so a host has at most one.
	lane sim.Repeat

	// boostFree recycles wake-boost timers: each carries a prebuilt
	// closure, so arming a boost on the wake hot path allocates nothing
	// in steady state.
	boostFree []*boostTimer
}

// New creates a host scheduled by kernel k.
func New(k *sim.Kernel, id int, name string, pr Params) *Host {
	if pr.Quantum <= 0 {
		panic("host: Quantum must be positive")
	}
	h := &Host{k: k, id: id, name: name, pr: pr}
	h.dispatchFn = h.finishDispatch
	return h
}

// Kernel returns the simulation kernel driving this host.
func (h *Host) Kernel() *sim.Kernel { return h.k }

// ID returns the host's cluster-unique id.
func (h *Host) ID() int { return h.id }

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Params returns the host's cost model.
func (h *Host) Params() Params { return h.pr }

// ContextSwitches returns the number of dispatches performed so far.
func (h *Host) ContextSwitches() uint64 { return h.ctxSwitches }

// BusyTime returns total CPU time consumed by all processes.
func (h *Host) BusyTime() time.Duration { return h.busy }

// Procs returns all processes ever spawned on this host.
func (h *Host) Procs() []*Proc { return h.procs }

// Proc is a simulated OS process, in one of two forms the scheduler does
// not tell apart: a coroutine running the function given to Spawn, or a
// task (SpawnTask, task.go) whose step function runs to completion in
// kernel event context. One state machine (advance) schedules both, asked
// for CPU and sleeps by the coroutine's calls of Use, UseWhile, SleepOnQ
// and SleepFor (made inside its Spawn function, never on a task) or by
// what the task's step returns. Wakeup-style operations go through the Host.
type Proc struct {
	h     *Host
	sp    *sim.Proc   // the coroutine; nil for a task
	step  func() Want // the task's body; nil for a coroutine
	name  string
	state procState
	// inRunq says the process is on the run queue. parked and wakePending
	// are sim.Proc's Park/Wake protocol, flag for flag: a wake finds the
	// process parked and schedules its resume event, or is remembered and
	// swallows the next park. One pair per process, whatever it was doing
	// (a Use, a poll, a sleep) when woken.
	inRunq, parked, wakePending bool
	kind                        CPUKind // the bucket of the Use in progress

	user time.Duration
	sys  time.Duration

	quantumUsed time.Duration
	// waitNext links the sleepers of one WaitQ, nil on the last and on a
	// process that is on none.
	waitNext *Proc
	// dispatchSeq counts dispatches; wake-boost events capture it to
	// detect staleness.
	dispatchSeq uint64

	// The Use in progress: CPU still owed and the slice of it now elapsing
	// (zero when none is: the process waits for the CPU).
	need  time.Duration
	slice time.Duration
	// The UseWhile in progress: again says if a look loses, lost is the
	// caller's count of losses and left the losses short of the limit.
	again func() bool
	every time.Duration
	lost  *uint64
	left  int

	// Closures built once so the resume/sleep hot paths schedule kernel
	// events without allocating; timerFn on the first SleepFor.
	resumeFn func()
	timerFn  func()
}

// Spawn creates a coroutine process and makes it runnable. fn runs under
// the simulation's baton discipline and should express all CPU consumption
// through the Use methods and all blocking through the Sleep methods.
func (h *Host) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{h: h, name: name, state: stateRunnable}
	p.resumeFn = p.resume
	h.procs = append(h.procs, p)
	p.sp = h.k.Spawn(h.name+"/"+name, func(*sim.Proc) {
		p.await("cpu wait", nil) // for the first dispatch
		fn(p)
		p.exit()
	})
	h.enqueue(p)
	h.maybeDispatch()
	return p
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Host returns the process's host.
func (p *Proc) Host() *Host { return p.h }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.h.k.Now() }

// User returns accumulated user-mode CPU time.
func (p *Proc) User() time.Duration { return p.user }

// Sys returns accumulated system-mode CPU time.
func (p *Proc) Sys() time.Duration { return p.sys }

// enqueue appends p to the run queue if it is not already there.
func (h *Host) enqueue(p *Proc) {
	if p.inRunq || p.state == stateDead {
		return
	}
	p.state = stateRunnable
	p.inRunq = true
	if h.runqHead > 0 && len(h.runq) == cap(h.runq) {
		// Compact the live region over the consumed prefix instead of
		// letting append reallocate: a host whose queue never fully
		// drains (two spinners alternating quanta) would otherwise grow
		// the backing array by one slot per context switch forever.
		n := copy(h.runq, h.runq[h.runqHead:])
		for i := n; i < len(h.runq); i++ {
			h.runq[i] = nil
		}
		h.runq = h.runq[:n]
		h.runqHead = 0
	}
	h.runq = append(h.runq, p)
}

// runnable returns the number of processes waiting in the run queue.
func (h *Host) runnable() int { return len(h.runq) - h.runqHead }

// maybeDispatch starts a context switch to the head of the run queue if
// the CPU is idle. Safe to call from kernel event context.
func (h *Host) maybeDispatch() {
	if h.cur != nil || h.next != nil || h.runnable() == 0 {
		return
	}
	next := h.runq[h.runqHead]
	h.next = next
	h.runq[h.runqHead] = nil
	h.runqHead++
	if h.runqHead == len(h.runq) {
		h.runq = h.runq[:0]
		h.runqHead = 0
	}
	next.inRunq = false
	h.ctxSwitches++
	delay := h.pr.CtxSwitch + h.pr.DispatchLatency
	h.k.AfterCoalesced(delay, "dispatch", h.dispatchFn)
}

// finishDispatch completes a context switch armed by maybeDispatch.
func (h *Host) finishDispatch() {
	next := h.next
	h.next = nil
	if next.state == stateDead {
		h.maybeDispatch()
		return
	}
	h.cur = next
	next.state = stateRunning
	next.dispatchSeq++
	next.quantumUsed = 0
	next.sys += h.pr.CtxSwitch
	h.busy += h.pr.CtxSwitch
	if trace != nil {
		trace("%v %s: dispatch %s", h.k.Now(), h.name, next.name)
	}
	next.wake()
}

// releaseCPU gives up the CPU voluntarily (block or exit path).
func (p *Proc) releaseCPU() {
	if p.h.cur == p {
		p.h.cur = nil
		p.h.maybeDispatch()
	}
}

// exit ends the process: its function returned, or its step asked to.
func (p *Proc) exit() {
	p.state = stateDead
	p.releaseCPU()
}

// wake is the one way the scheduler resumes a process, always through an
// event and never inline: wakeAll and finishDispatch rely on the woken
// process not running before they return.
func (p *Proc) wake() {
	if p.parked {
		p.parked = false
		p.h.k.AfterCoalesced(0, "wake", p.resumeFn)
	} else if p.state != stateDead {
		p.wakePending = true
	}
}

// advance runs the scheduler's state machine for p until the process
// must wait for an event (false: a wake or the end of a slice will call
// resume) or is on the CPU with nothing owed (true). A poll's slice ends
// are its run in the kernel's lane, every other one a kernel event.
func (p *Proc) advance() bool {
	h := p.h
	for {
		if p.slice > 0 {
			// Nothing wakes a process in mid-slice, so this is the slice's end.
			p.charge(p.slice)
			p.quantumUsed += p.slice
			p.need -= p.slice
			p.slice = 0
			if p.quantumUsed >= h.pr.Quantum {
				p.quantumExpire()
			}
		}
		// The CPU comes first, also when nothing is owed: a Use that ended
		// exactly at a quantum expiry is over only once the process has been
		// dispatched again. A blocked process is never on the CPU, so this is
		// the wait for its Wakeup or timer as well. A wake that came before
		// the wait is consumed instead.
		if h.cur != p {
			if !p.wakePending {
				p.parked = true
				return false
			}
			p.wakePending = false
			continue
		}
		if p.need <= 0 {
			return true
		}
		if p.slice = min(p.need, h.pr.Quantum-p.quantumUsed); p.slice > 0 {
			if p.again != nil {
				h.k.Repeat(&h.lane, p.slice, p.every, (*poll)(p))
			} else {
				h.k.AfterCoalesced(p.slice, "wake", p.resumeFn)
			}
			return false
		}
		// The quantum was spent before the Use began (a boost).
		p.quantumExpire()
	}
}

// charge bills d of CPU to the bucket of p's Use and to the host.
func (p *Proc) charge(d time.Duration) {
	if p.kind == CPUSys {
		p.sys += d
	} else {
		p.user += d
	}
	p.h.busy += d
}

// run drives p's state machine: each time the process is on the CPU with
// nothing owed it asks the task's step, or the poll's look, what comes
// next. It returns true when the coroutine is owed the baton back, false
// when p waits for an event or has exited.
func (p *Proc) run() bool {
	for p.advance() {
		switch {
		case p.step != nil:
			switch w := p.step(); {
			case w.kind != 0:
				p.need, p.kind = w.d, w.kind
			case w.q != nil:
				p.block(w.q)
			default:
				p.exit()
				return false
			}
		case p.again != nil && p.lose():
			p.need = p.every
		default:
			p.again = nil
			return true
		}
	}
	return false
}

// resume is the callback of every resume event of every process: it runs
// the machine and, when the coroutine is owed the baton, hands it back.
func (p *Proc) resume() {
	if p.run() {
		p.sp.Resume()
	}
}

// lose is a poll's look: true if it loses and the poll goes on.
func (p *Proc) lose() bool {
	if !p.again() {
		return false
	}
	*p.lost++
	p.left--
	return p.left > 0
}

// await is where a coroutine waits out what it has just asked of the
// scheduler (again: the predicate, if it asked for a poll). The machine
// runs as far as it can on the coroutine's own stack; resume events run
// the rest and the last hands the baton back — unless nothing was left:
// then no Resume is coming and the coroutine must not Await. reason is
// for Kernel.Idle, nil for a Use: computing is not idle.
func (p *Proc) await(reason any, again func() bool) {
	if p.again != nil {
		panic("host: " + p.name + " blocks inside its UseWhile predicate, which must not block")
	}
	p.again = again
	if !p.run() {
		p.sp.Await(reason)
	}
}

// Use consumes d of CPU time charged to the given bucket, yielding the
// CPU at quantum boundaries if other processes are runnable. It is the
// only way simulated computation passes time; d <= 0 is a no-op.
func (p *Proc) Use(d time.Duration, kind CPUKind) {
	if d > 0 {
		p.need, p.kind = d, kind
		p.await(nil, nil)
	}
}

// UseWhile is
//
//	for n := 0; ; { p.Use(d, kind); if !again() { return }; *lost++; if n++; n >= limit { return } }
//
// with the loop run by the scheduler: a look — a call of again — comes at
// exactly the instants Use would have returned (on the CPU, nothing owed,
// after any quantum rotation), and the coroutine is resumed once, in the
// event of the look that ends the poll. *lost counts the losses, the looks
// where again said yes, as they happen; a limit below 1 is 1. again must
// be pure: it may be asked any number of times between two kernel events,
// in the kernel, possibly on another process's stack, and its answer must
// depend only on what kernel events change. It must not block (Use and the
// sleeps panic) and should not allocate. d must be positive, or the poll
// would not end.
func (p *Proc) UseWhile(d time.Duration, kind CPUKind, again func() bool, limit int, lost *uint64) {
	if d <= 0 {
		panic("host: UseWhile needs a positive d")
	}
	p.need, p.every, p.kind = d, d, kind
	p.lost, p.left = lost, limit
	p.await(nil, again)
}

// UseUser charges d as user time.
func (p *Proc) UseUser(d time.Duration) { p.Use(d, CPUUser) }

// UseSys charges d as system time.
func (p *Proc) UseSys(d time.Duration) { p.Use(d, CPUSys) }

// quantumExpire rotates the CPU to the next runnable process, if any;
// the caller then waits to be dispatched again.
func (p *Proc) quantumExpire() {
	h := p.h
	if h.runnable() == 0 {
		p.quantumUsed = 0 // alone: keep running, fresh quantum
		return
	}
	if trace != nil {
		trace("%v %s: quantum expire %s (runq %d)", h.k.Now(), h.name, p.name, h.runnable())
	}
	h.cur = nil
	h.enqueue(p)
	h.maybeDispatch()
}

// WaitQ is the processes of one host asleep on one condition, in the
// order they went to sleep. It lives in whatever they wait for (a page's
// state, a driver) as two words linked through the sleepers themselves, so
// a wake nobody waits for is a load and a compare; the zero value is an
// empty queue. It must not be copied or overwritten while anyone sleeps on
// it: the sleepers would never wake.
type WaitQ struct{ head, tail *Proc }

// SleepOnQ blocks the process until Host.WakeupQ is called on q, giving
// up the CPU. Spurious wakeups do not occur at this layer: the process
// returns only after a WakeupQ of its queue (callers that share a queue
// among conditions should still re-check them).
func (p *Proc) SleepOnQ(q *WaitQ) {
	p.block(q)
	// The queue is the reason Kernel.Idle and a debugger show: a pointer
	// in an interface does not allocate.
	p.await(q, nil)
}

// block appends the process to q and gives up the CPU: the half of
// SleepOnQ that comes before the wait.
func (p *Proc) block(q *WaitQ) {
	if p.waitNext != nil || q.tail == p {
		panic("host: " + p.name + " sleeps while still on a wait queue")
	}
	p.state = stateBlocked
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.waitNext = p
	}
	q.tail = p
	p.releaseCPU()
}

// SleepFor blocks the process for virtual duration d (a timed kernel
// sleep, not CPU consumption).
func (p *Proc) SleepFor(d time.Duration) {
	h := p.h
	p.state = stateBlocked
	p.releaseCPU()
	if p.timerFn == nil {
		p.timerFn = func() { h.timerFire(p) }
	}
	h.k.AfterCoalesced(d, "timer", p.timerFn)
	p.await("timed sleep", nil)
}

// timerFire completes a SleepFor armed on p.
func (h *Host) timerFire(p *Proc) {
	if p.state == stateBlocked {
		p.state = stateRunnable
		h.enqueue(p)
		h.maybeDispatch()
		h.armWakeBoost(p)
		p.wake()
	}
}

// WakeupQ makes every process sleeping on q runnable, in the order they
// went to sleep. It may be called from kernel event context (e.g. a NIC
// interrupt) or from another process. Most wakes find nobody (a snooped
// transit of a page no local process waits for), so that case is all
// there is to inline.
func (h *Host) WakeupQ(q *WaitQ) {
	if q.head != nil {
		h.wakeAll(q)
	}
}

// wakeAll is WakeupQ with sleepers. The queue is emptied first and the
// detached list stays a stable snapshot: no process can sleep again until
// this event callback has returned control to the kernel, because wake
// resumes a process through an event, never inline from here or from
// finishDispatch.
func (h *Host) wakeAll(q *WaitQ) {
	first := q.head
	*q = WaitQ{}
	for p := first; p != nil; p = p.waitNext {
		if p.state != stateBlocked {
			continue
		}
		p.state = stateRunnable
		h.enqueue(p)
		p.wake()
	}
	h.maybeDispatch()
	// Boosts are armed after the dispatch, in the same order, and the
	// links go as they are walked: a sleeper takes none to its next queue.
	for p := first; p != nil; {
		next := p.waitNext
		p.waitNext = nil
		h.armWakeBoost(p)
		p = next
	}
}

// SleepOn is SleepOnQ on the queue the host keeps for key, for waiters
// with nowhere to put a WaitQ of their own; it pays a map probe.
func (p *Proc) SleepOn(key any) {
	h := p.h
	q := h.keyed[key]
	if q == nil {
		if h.keyed == nil {
			h.keyed = make(map[any]*WaitQ)
		}
		q = new(WaitQ)
		h.keyed[key] = q
	}
	p.SleepOnQ(q)
}

// Wakeup is WakeupQ on the queue the host keeps for key.
func (h *Host) Wakeup(key any) {
	if q := h.keyed[key]; q != nil {
		h.WakeupQ(q)
	}
}

// boostTimer is one in-flight wake-boost: the woken process, the
// dispatch epoch captured at arm time, and a closure built once (when
// the timer is first allocated) so re-arming from the pool is
// allocation-free. Timers return to the host's pool when they fire.
type boostTimer struct {
	h     *Host
	woken *Proc
	epoch uint64
	fn    func()
}

// fire applies the boost if it is still fresh, then recycles the timer.
func (bt *boostTimer) fire() {
	h, woken := bt.h, bt.woken
	if woken.dispatchSeq == bt.epoch && woken.state == stateRunnable && woken.inRunq && h.cur != nil {
		if trace != nil {
			trace("%v %s: boost preempts %s for %s", h.k.Now(), h.name, h.cur.name, woken.name)
		}
		h.cur.quantumUsed = h.pr.Quantum
	}
	bt.woken = nil
	h.boostFree = append(h.boostFree, bt)
}

// armWakeBoost schedules the wakeup priority boost for a just-woken
// process: if it is still waiting for the CPU after WakeBoostDelay, the
// current runner's quantum is exhausted so it yields at its next
// scheduling point (for a spinning client that is its next 50 µs check; a
// server mid-copy yields at the end of the copy). A process that got the
// CPU before the boost fires consumes no preemption — this matches the
// SunOS behaviour where only still-starved woken processes outrank the
// running one at priority recomputation.
func (h *Host) armWakeBoost(woken *Proc) {
	if h.pr.WakeBoostDelay <= 0 {
		return
	}
	var bt *boostTimer
	if n := len(h.boostFree); n > 0 {
		bt = h.boostFree[n-1]
		h.boostFree[n-1] = nil
		h.boostFree = h.boostFree[:n-1]
	} else {
		bt = &boostTimer{h: h}
		bt.fn = bt.fire
	}
	bt.woken = woken
	// Capture the dispatch epoch: if the woken process runs (is
	// dispatched) before the boost fires, the boost is stale and must be
	// discarded — otherwise it would preempt whoever runs later (often
	// the server) in favour of a process that already had its turn.
	bt.epoch = woken.dispatchSeq
	h.k.AfterCoalesced(h.pr.WakeBoostDelay, "wake boost", bt.fn)
}

// Interrupt models a hardware interrupt: after the configured interrupt
// cost, fn runs in kernel event context (typically a Wakeup). Like every
// event the scheduler files, it goes through sim.Kernel.AfterCoalesced:
// interrupts raised back to back by one cause — a broadcast's deliveries
// raising the same fixed-latency interrupt on every receiving host — are
// one kernel event, merged only when dispatch order is provably
// unaffected; nothing cancels an interrupt, so nothing is lost by not
// getting an Event back.
func (h *Host) Interrupt(fn func()) {
	h.k.AfterCoalesced(h.pr.InterruptCost, "interrupt", fn)
}

func (h *Host) String() string { return fmt.Sprintf("host %d (%s)", h.id, h.name) }
