package host

import (
	"slices"
	"testing"
	"time"

	"mether/internal/choice"
)

// TestSchedulerMatchesSpec holds the host to spec, the reference scheduler
// below, on drawn worlds (script_test.go): four subjects running one
// script of Uses and sleeps from four lines, coroutine rivals, wakers at
// random instants, half through Interrupt, and a tick that wakes every
// queue. Each world is played on the host three ways — coroutines
// repeating a Use in a written loop, every other subject a task,
// coroutines repeating by UseWhile, whose looks run in the kernel's repeat
// lane — and each play must log what the spec logs: the scheduler's trace,
// each program line and the losses of each repeated Use at their instants
// (a look loses until its queue's next outside wake, which the spec asks
// look by look and the lane once a window), outside wakes that found
// sleepers, the context switches, the
// busy time and every process's user and system time. The plays must also
// agree on Dispatched and PendingEvents, and every queue must be well
// formed after every log line. A failing seed's tape is shrunk and
// printed as a FuzzHost corpus file (testdata/fuzz holds one); the fixed
// worlds of host_test.go are held to the spec and to lines they must log.
//
// Each mutation below, made to a copy of the host, fails at the first
// seed given, whose tape (bytes drawn, its variant ahead) shrinks as
// shown, and the fixed worlds named. The rows above the poll's were
// measured before repeated Uses logged their losses once, not each look;
// the poll's rows (poll.go) were measured with it.
//
//	wakeAll wakes its sleepers in LIFO order          0    1418→8     TestSleepersCountAndMultipleWake, 2 more
//	wakeAll arms each boost ahead of maybeDispatch    52   1813→8     TestBoostFollowsItsDispatch
//	wakeAll keeps a sleeper's link                    0    1418→8     TestSleeperOnOneQueue, 2 more
//	resume hands back through a fresh After(0) event  0    1418→0     TestBusyTimeAccounting, 16 more
//	advance: no h.cur != p wait once nothing is owed  0    1418→0     TestAccountingConservation, 20 more
//	task: a zero-cost UseCPU read as exit (w.d > 0)   0    1418→15    TestSleeperOnOneQueue
//	again asked before the CPU is re-acquired         0    1418→13    TestContinuedSliceRotates, 6 more
//	boost: the dispatch-epoch check removed           12   1407→31    TestStaleBoostDoesNotPreemptForDispatchedProc, 1 more
//	timerFire arms no boost                           1    1734→135   TestAccountingConservation
//	a quantum expiry keeps the CPU with one waiting   0    1418→44    TestRoundRobinPreemption, 6 more
//	finishDispatch charges no CtxSwitch               3    1500→8     TestBusyTimeAccounting, 19 more
//	Interrupt costs nothing                           0    1418→136   TestInterruptDelaysHandler
//	a switch takes no DispatchLatency                 0    1418→8
//	SpawnTask files no start event                    0    1418→0     TestBusyTimeAccounting, 16 more
//	poll: Ahead takes the CPU's peers to be absent    10   1623→19    TestDeterministicScheduling, 8 more
//	poll: Ahead lets a look past the limit lose       8    1492→22    TestSpinnerDelaysWokenProcessUntilQuantumEnd, 8 more
//	poll: Skip charges one look too many              8    1492→19    TestDeterministicScheduling, 8 more
//	poll: Ahead ends on the limit's look, not the     28   1737→21    TestUseWhileMatchesLoop
//	  quantum's end that splits the look before it
func TestSchedulerMatchesSpec(t *testing.T) {
	seeds := 480
	if testing.Short() {
		seeds = 400
	}
	drawn(t, seeds, 0)
}

// The three differentials the spec replaced keep their names, each a few
// worlds drawn to its own ground and held to the spec like the rest.
func TestTaskMatchesProcess(t *testing.T)         { drawn(t, 24, 1) }
func TestUseWhileMatchesLoop(t *testing.T)        { drawn(t, 24, 2) }
func TestWaitQMatchesKeyedReference(t *testing.T) { drawn(t, 24, 3) }

// variants change a drawn world with the rest of its choices, each to the
// ground its floor asks for: not at all, for scripts that run to their end,
// rivals, slice ends run inline by subjects alone and beside rivals, queues
// with more than one sleeper, boosts that preempt and boosts that only the
// dispatch epoch stops; then, for the differentials, every subject a task
// in the play with tasks; every Use of the script made one to seven times,
// by UseWhile and by the written loop; every sleep and wake through the
// keyed SleepOn/Wakeup directory instead of a WaitQ.
var variants = [...]struct {
	vary  func(w *world, choose func(n int) int)
	floor func(c cover) bool
}{
	{func(*world, func(int) int) {}, func(c cover) bool {
		return c.finished >= c.worlds*9/10 && c.rivalled >= c.worlds/2 && c.lone > 0 && c.beside > 0 &&
			c.joined >= 2*c.worlds && c.boosts > 0 && c.stale > 0
	}},
	{func(w *world, _ func(int) int) { w.tasks = true }, func(c cover) bool { return c.finished >= c.worlds*9/10 }},
	{func(w *world, choose func(int) int) {
		for i := range w.progs[0] { // the script, whose tails the other subjects run
			w.progs[0][i].reps = 1 + choose(7)
		}
	}, func(c cover) bool { return c.lone > 0 && c.beside > 0 }},
	{func(w *world, _ func(int) int) { w.keyed = true }, func(c cover) bool { return c.joined >= 2*c.worlds }},
}

// drawn holds to the spec the worlds drawn from seeds 0 to seeds-1, each
// changed by variant v, and fails below the variant's floor.
func drawn(t *testing.T, seeds, v int) {
	t.Helper()
	var c cover
	for seed := 0; seed < seeds; seed++ {
		tp := choice.Seeded(int64(seed))
		w := drawWorld(tp.Choose)
		variants[v].vary(&w, tp.Choose)
		if _, err := holds(&w, &c); err != nil {
			drawn := append(choice.Put(nil, len(variants), v), tp.Bytes()...)
			t.Fatalf("seed %d: %v\n%s", seed, err, choice.Explain("FuzzHost", drawn, fuzz))
		}
	}
	t.Logf("%d worlds: %+v", seeds, c)
	if !variants[v].floor(c) {
		t.Errorf("%d worlds covered too little ground: %+v", seeds, c)
	}
}

// FuzzHost plays the world its input draws as a choice tape
// (internal/choice).
func FuzzHost(f *testing.F) {
	for _, in := range []string{"", "\x03\x02\x01\x02\x05", "\x07\x01\x01\x01\x03\x10\x02\x01\x07", "\xff\x80\x40\x20\x10\x08\x04\x02\x01"} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := fuzz(choice.New(in)); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzz plays the world a tape draws after its variant, which a seeded run
// fixes outside its tape.
func fuzz(tp *choice.Tape) error {
	v := variants[tp.Choose(len(variants))]
	w := drawWorld(tp.Choose)
	v.vary(&w, tp.Choose)
	_, err := holds(&w, &cover{})
	return err
}

// spec is the reference scheduler: the contract the host is held to,
// written to be read rather than to be fast. Events sit in a slice and
// the next is found by scanning for the least (at, seq); the run queue
// and each wait queue are slices; a process is a cursor into its program,
// run from its resume events until it must wait. There is no kernel,
// coroutine, linked queue, timer pool or slice end run inline. Each rule
// is stated once, where it is marked.
type spec struct {
	r        *runner
	pr       Params
	clock    time.Duration
	seq      uint64
	events   []specEvent
	cur, sw  *specProc // on the CPU; being switched to
	runq     []*specProc
	sleepers [queues][]*specProc
	procs    []*specProc
	ctx      uint64
	busy     time.Duration
	// boosts that preempted, and those that only the dispatch epoch stopped
	boosts, stale int
}

type specEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type specProc struct {
	c           *cursor
	state       procState
	queued      bool             // on the run queue
	waiting     bool             // for a wake's resume event
	cpu         [3]time.Duration // by CPUKind
	used        time.Duration    // of its quantum
	epoch       uint64           // dispatches so far
	owed, slice time.Duration    // CPU still owed; the slice now elapsing
	kind        CPUKind
}

func (s *spec) now() time.Duration                   { return s.clock }
func (s *spec) at(t time.Duration, fn func())        { s.file(t-s.clock, fn) }
func (s *spec) asleep(q int) int                     { return len(s.sleepers[q]) }
func (s *spec) resumes(d time.Duration, p *specProc) { s.file(d, func() { s.step(p) }) }

// Rule: an event runs d from now, in (at, seq) order.
func (s *spec) file(d time.Duration, fn func()) {
	s.seq++
	s.events = append(s.events, specEvent{s.clock + d, s.seq, fn})
}

func (s *spec) run(until time.Duration) {
	for len(s.events) > 0 {
		i := 0
		for j, e := range s.events {
			if e.at < s.events[i].at || e.at == s.events[i].at && e.seq < s.events[i].seq {
				i = j
			}
		}
		e := s.events[i]
		if until > 0 && e.at > until {
			return
		}
		s.events = slices.Delete(s.events, i, i+1)
		s.clock = e.at
		e.fn()
	}
}

// Rule: an interrupt's handler runs InterruptCost later.
func (s *spec) interrupt(fn func()) { s.file(s.pr.InterruptCost, fn) }

// Rule: a process starts in an event of its own, now, and joins the run
// queue.
func (s *spec) spawn(c *cursor, _ bool) {
	p := &specProc{c: c}
	s.procs = append(s.procs, p)
	s.resumes(0, p)
	s.enqueue(p)
	s.dispatch()
}

// Rule: the run queue is first in, first out, with a process on it once.
func (s *spec) enqueue(p *specProc) {
	if !p.queued {
		p.state, p.queued = stateRunnable, true
		s.runq = append(s.runq, p)
	}
}

// Rule: an idle CPU switches to the run queue's head. A switch is one at
// a time, counts when it starts and takes CtxSwitch + DispatchLatency;
// then the process is on the CPU with a fresh quantum, is charged
// CtxSwitch as system time, and is woken.
func (s *spec) dispatch() {
	if s.cur != nil || s.sw != nil || len(s.runq) == 0 {
		return
	}
	s.sw, s.runq = s.runq[0], s.runq[1:]
	s.sw.queued = false
	s.ctx++
	s.file(s.pr.CtxSwitch+s.pr.DispatchLatency, func() {
		p := s.sw
		s.sw, s.cur, p.state = nil, p, stateRunning
		p.epoch++
		p.used = 0
		p.cpu[CPUSys] += s.pr.CtxSwitch
		s.busy += s.pr.CtxSwitch
		s.r.logf("%v %s: dispatch %s", s.clock, "h", p.c.name)
		s.wake(p)
	})
}

// release gives up the CPU, if p has it.
func (s *spec) release(p *specProc) {
	if s.cur == p {
		s.cur = nil
		s.dispatch()
	}
}

// Rule: a wake resumes a waiting process in an event of its own, now; one
// not waiting is due to resume already, or running.
func (s *spec) wake(p *specProc) {
	if p.waiting {
		p.waiting = false
		s.resumes(0, p)
	}
}

// step runs p until it must wait. Rule: a process computes only on the
// CPU, a slice at a time, each ending at the Use's end or the quantum's,
// whichever is first; it waits for the CPU before each slice and after
// the last, also when nothing was owed; on the CPU with nothing owed it
// asks its program what next. A sleep gives up the CPU, on a queue's tail
// or for a time; the program's end, for good.
func (s *spec) step(p *specProc) {
	for {
		if p.slice > 0 {
			p.cpu[p.kind] += p.slice
			s.busy += p.slice
			p.used += p.slice
			p.owed -= p.slice
			if p.slice = 0; p.used >= s.pr.Quantum {
				s.expire(p)
			}
		}
		switch {
		case s.cur != p:
			p.waiting = true
			return
		case p.owed > 0 && p.used < s.pr.Quantum:
			p.slice = min(p.owed, s.pr.Quantum-p.used)
			s.resumes(p.slice, p)
			return
		case p.owed > 0:
			s.expire(p) // a boost spent the quantum
			continue
		}
		switch o, ok := p.c.next(); {
		case !ok:
			p.state = stateDead
			s.release(p)
			return
		case o.kind == oSleep:
			p.state = stateBlocked
			s.sleepers[o.q] = append(s.sleepers[o.q], p)
			s.release(p)
		case o.kind == oFor:
			p.state = stateBlocked
			s.release(p)
			// Rule: a timed sleep ends with the process on the run queue, an
			// idle CPU switching, its boost armed, and the process woken.
			s.file(o.d, func() {
				s.enqueue(p)
				s.dispatch()
				s.boost(p)
				s.wake(p)
			})
		default:
			p.owed, p.kind = o.d, o.cpu
		}
	}
}

// Rule: at a quantum's end the CPU goes to the run queue's head and the
// process to its tail; alone, it keeps the CPU with a fresh quantum.
func (s *spec) expire(p *specProc) {
	if len(s.runq) == 0 {
		p.used = 0
		return
	}
	s.r.logf("%v %s: quantum expire %s (runq %d)", s.clock, "h", p.c.name, len(s.runq))
	s.cur = nil
	s.enqueue(p)
	s.dispatch()
}

// Rule: a queue's wake empties it and makes its sleepers runnable in the
// order they slept, each joining the run queue and woken; then an idle CPU
// switches; then each sleeper's boost is armed, in the same order.
func (s *spec) wakeup(q int) {
	ps := s.sleepers[q]
	s.sleepers[q] = nil
	for _, p := range ps {
		s.enqueue(p)
		s.wake(p)
	}
	s.dispatch()
	for _, p := range ps {
		s.boost(p)
	}
}

// Rule: WakeBoostDelay after its wake (never, if that is zero), a process
// still on the run queue, not dispatched since, ends the quantum of the
// process on the CPU.
func (s *spec) boost(p *specProc) {
	if s.pr.WakeBoostDelay <= 0 {
		return
	}
	epoch := p.epoch
	s.file(s.pr.WakeBoostDelay, func() {
		switch {
		case !p.queued || s.cur == nil:
		case p.epoch != epoch:
			s.stale++
		default:
			s.boosts++
			s.r.logf("%v %s: boost preempts %s for %s", s.clock, "h", s.cur.c.name, p.c.name)
			s.cur.used = s.pr.Quantum
		}
	})
}

func (s *spec) account() (ctx uint64, busy time.Duration, cpu [][3]time.Duration) {
	for _, p := range s.procs {
		cpu = append(cpu, p.cpu)
	}
	return s.ctx, s.busy, cpu
}
