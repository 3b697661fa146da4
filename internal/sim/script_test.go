package sim

import (
	"fmt"
	"slices"
	"time"

	"mether/internal/choice"
)

// A script is what the kernel is held to the spec with (spec_test.go):
// straight-line programs for processes, callbacks for events, and rounds
// of acts made from outside the kernel, each followed by a RunUntil. One
// runner plays it on either kernel, so both see the same calls in the
// same order for as long as they agree.
type script struct {
	progs  [][]act  // by pid
	cbs    [][]act  // by callback; one past the end only logs
	runs   []runDef // the runs of looks the acts start
	flags  int      // the flags the runs read
	rounds []round
	// stopAfter is the trace length below which a stop does nothing, so
	// that a script stops late rather than at its first callback.
	stopAfter int
	budget    int // callback events filed at most; 0 for no limit
}

// runDef is a run of looks (Kernel.Repeat): a look every period that
// loses while its flag is even, at most limit losses, and its tail — the
// event that ends the run after the last loss — last after it (0 < last
// <= every), as a quantum's end comes early after a spinner's looks; its
// end runs callback cb, or resumes the process that made the spin.
type runDef struct {
	every, last time.Duration
	limit       int64
	flag, cb    int
}

// round is acts made from outside the kernel, then RunUntil(from+dl).
type round struct {
	acts []act
	dl   time.Duration
	from anchor
}

type anchor uint8

const (
	fromZero anchor = iota
	fromNow
	fromBase // the span start of the round's burst (aBase), or now if later
)

type actKind uint8

const (
	aSleep  actKind = iota // process: Sleep(d)
	aPark                  // process: Park
	aAwait                 // process: Await, resumed d later by an After (arg 1) or AfterCoalesced (arg 2) alarm, or by a callback's aResume
	aSpin                  // process: start run arg, its first look d from now, and Await; the run's end resumes it
	aWake                  // Wake(arg)
	aResume                // callback: Resume(arg) if it is in Await and nobody has yet
	aSpawn                 // start program arg, once
	aAfter                 // After(d) running callback arg: a timer aCancel may cancel
	aCoal                  // AfterCoalesced(d) running callback arg
	aRun                   // start run arg, its first look d from now, unless it runs already
	aFlip                  // flip flag arg, which the runs read
	aCancel                // cancel live timer arg mod the number live: -1 is the last armed
	aBase                  // later schedules in the list count from the start of the next level-d bucket span ahead
	aStop                  // Stop, once the trace is stopAfter long
	aRan                   // callback: Ran(arg), counting arg more events
	nActs
)

// act is one step of a program or a callback.
type act struct {
	kind actKind
	d    time.Duration
	arg  int
}

// machine is what the runner needs from a kernel: real (a Kernel) and the
// spec provide it.
type machine interface {
	now() time.Duration
	after(d time.Duration, fn func()) (cancel func())
	afterCoalesced(d time.Duration, fn func())
	repeat(d time.Duration, o *looker)
	stop()
	ran(n int)
	spawn(pid int)
	wake(pid int)
	resume(pid int)
	runUntil(dl time.Duration) time.Duration
	state() outcome
}

// outcome is what is compared after every RunUntil besides the trace.
type outcome struct {
	now              time.Duration
	dispatched, pops uint64
	idle             string
	stopped          bool
}

// mark is one trace line: the callback of event ev ran, or (ev 0) op pc
// of program pid returned.
type mark struct {
	at          time.Duration
	ev, pid, pc int
}

func (m mark) String() string {
	if m.ev > 0 {
		return fmt.Sprintf("%v e%d", m.at, m.ev)
	}
	return fmt.Sprintf("%v p%d.%d", m.at, m.pid, m.pc)
}

// run is one play of a script on one machine: its trace, and the
// bookkeeping that keeps the script inside the kernel's contract (spawn a
// program once, cancel a timer once and only before it fires, Resume a
// process once per Await and once per callback).
type run struct {
	s        *script
	m        machine
	trace    []mark
	ids      int // events filed so far: the last one's id
	live     []timer
	spawned  []bool
	awaiting []bool
	base     time.Duration // the span start of the last round's burst
	looks    []*looker     // by run
	flags    []int
	c        *cover
}

type timer struct {
	id     int
	cancel func()
}

func newRun(s *script, m machine, c *cover) *run {
	r := &run{s: s, m: m, c: c, spawned: make([]bool, len(s.progs)), awaiting: make([]bool, len(s.progs)), flags: make([]int, s.flags)}
	for _, d := range s.runs {
		r.looks = append(r.looks, &looker{r: r, def: d})
	}
	return r
}

// looker is one run of looks of a script on one machine, and what the
// Kernel asks of it: its losses so far, and whether the event pending is
// its tail.
type looker struct {
	r      *run
	def    runDef
	rep    Repeat
	id     int // its trace id
	pid    int // the process its end resumes, or -1
	losses int64
	tail   bool
	active bool
}

// start makes the run active for trace id and process pid (-1: none).
func (o *looker) start(id, pid int) {
	o.id, o.pid, o.losses, o.tail, o.active = id, pid, 0, false, true
}

func (o *looker) loses() bool { return o.r.flags[o.def.flag]%2 == 0 }

func (o *looker) Ahead() (int64, time.Duration) {
	if o.tail || !o.loses() {
		return 0, 0
	}
	return o.def.limit - o.losses, o.def.last
}

func (o *looker) Skip(n int64) {
	o.losses += n
	o.tail = o.losses == o.def.limit
}

// End is the run's end: it logs the run's id and resumes its process or
// runs its callback.
func (o *looker) End() {
	o.active = false
	o.r.c.ends++
	if o.pid >= 0 {
		o.r.note(o.id, 0, 0)
		o.r.hand(o.pid)
		return
	}
	o.r.fire(o.id, o.def.cb)
}

func (r *run) note(ev, pid, pc int) { r.trace = append(r.trace, mark{r.m.now(), ev, pid, pc}) }

// file numbers the next event, or says 0 once the budget is spent.
func (r *run) file() int {
	if r.s.budget > 0 && r.ids >= r.s.budget {
		return 0
	}
	r.ids++
	return r.ids
}

// fire runs callback cb as event id.
func (r *run) fire(id, cb int) {
	r.note(id, 0, 0)
	if cb < len(r.s.cbs) {
		r.acts(r.s.cbs[cb], false)
	}
}

// acts makes a callback's acts, or a round's.
func (r *run) acts(list []act, round bool) {
	var base time.Duration
	handed := false
	for _, a := range list {
		switch a.kind {
		case aResume:
			handed = handed || r.hand(a.arg)
		case aBase:
			span := time.Duration(1) << (wheelBits * a.d)
			now := r.m.now()
			base = (now+wheelSlots)&^(span-1) + span - now
			if r.c.bursts++; round {
				r.base = now + base
			}
		default:
			a.d += base
			r.exec(a, -1)
		}
	}
}

// exec makes an act that does not block, for program pid or (-1) a
// callback or round.
func (r *run) exec(a act, pid int) {
	switch a.kind {
	case aWake:
		if a.arg != pid && r.spawned[a.arg] {
			r.m.wake(a.arg)
		}
	case aSpawn:
		if !r.spawned[a.arg] {
			r.spawned[a.arg] = true
			r.m.spawn(a.arg)
		}
	case aAfter:
		if id := r.file(); id > 0 {
			cancel := r.m.after(a.d, func() {
				r.live = slices.DeleteFunc(r.live, func(t timer) bool { return t.id == id })
				r.fire(id, a.arg)
			})
			r.live = append(r.live, timer{id, cancel})
		}
	case aCoal:
		if id := r.file(); id > 0 {
			r.m.afterCoalesced(a.d, func() { r.fire(id, a.arg) })
		}
	case aRun:
		if o := r.looks[a.arg]; !o.active {
			if id := r.file(); id > 0 {
				o.start(id, -1)
				r.m.repeat(a.d, o)
			}
		}
	case aFlip:
		r.flags[a.arg]++
	case aCancel:
		if n := len(r.live); n > 0 {
			i := (a.arg%n + n) % n
			t := r.live[i]
			r.live = slices.Delete(r.live, i, i+1)
			t.cancel()
		}
	case aStop:
		if len(r.trace) >= r.s.stopAfter {
			r.m.stop()
		}
	case aRan:
		r.m.ran(a.arg)
	}
}

// hand Resumes pid if it is in Await and nobody has yet.
func (r *run) hand(pid int) bool {
	if !r.awaiting[pid] {
		return false
	}
	r.awaiting[pid] = false
	r.c.hands++
	r.m.resume(pid)
	return true
}

// prepare is program pid's op a up to where it blocks: it makes an op
// that does not block, arms the alarm of an Await or a step, and says
// whether the process blocks.
func (r *run) prepare(pid int, a act) bool {
	switch a.kind {
	case aSleep, aPark:
		return true
	case aAwait:
		r.awaiting[pid] = true
		if a.arg == 0 {
			return true
		}
		// An alarm is numbered like a callback event, outside the budget: a
		// program arms few.
		r.ids++
		id := r.ids
		alarm := func() {
			r.note(id, 0, 0)
			r.hand(pid)
		}
		if a.arg == 1 {
			r.m.after(a.d, alarm)
		} else {
			r.m.afterCoalesced(a.d, alarm)
		}
		return true
	case aSpin:
		o := r.looks[a.arg]
		if o.active {
			return false
		}
		// Numbered like an alarm, outside the budget.
		r.ids++
		o.start(r.ids, pid)
		r.awaiting[pid] = true
		r.m.repeat(a.d, o)
		return true
	}
	r.exec(a, pid)
	return false
}

// awaitReason is the reason op a gives Await: an Await that no alarm
// bounds is listed by Idle.
func awaitReason(a act) any {
	if a.kind == aAwait && a.arg == 0 {
		return "await"
	}
	return nil
}

// real plays a script on a Kernel and checks its insides on the way: the
// wheel after every operation when check is set. A failed check panics
// out of RunUntil.
type real struct {
	k     *Kernel
	r     *run
	procs []*Proc
	check bool
}

func (m *real) now() time.Duration { return m.k.Now() }
func (m *real) stop()              { m.k.Stop() }
func (m *real) ran(n int)          { m.k.Ran(n) }
func (m *real) wake(pid int)       { m.procs[pid].Wake() }
func (m *real) resume(pid int)     { m.procs[pid].Resume() }

func (m *real) after(d time.Duration, fn func()) func() {
	ev := m.k.After(d, "t", func() { m.checkWheel(); fn() })
	m.checkWheel()
	return func() { ev.Cancel(); m.checkWheel() }
}

func (m *real) afterCoalesced(d time.Duration, fn func()) {
	m.k.AfterCoalesced(d, "c", func() { m.checkWheel(); fn() })
	m.checkWheel()
}

func (m *real) checkWheel() {
	if m.check {
		m.r.c.wheel++
		if err := checkWheel(m.k); err != nil {
			panic(err)
		}
	}
}

func (m *real) repeat(d time.Duration, o *looker) {
	m.k.Repeat(&o.rep, d, o.def.every, o)
	m.checkWheel()
}

func (m *real) spawn(pid int) {
	m.procs[pid] = m.k.Spawn(fmt.Sprint("p", pid), func(p *Proc) {
		for pc, a := range m.r.s.progs[pid] {
			if m.r.prepare(pid, a) {
				switch a.kind {
				case aSleep:
					p.Sleep(a.d)
				case aPark:
					p.Park(nil)
				default:
					p.Await(awaitReason(a))
				}
			}
			m.r.note(0, pid, pc)
		}
	})
}

func (m *real) runUntil(dl time.Duration) time.Duration {
	defer m.checkWheel()
	return m.k.RunUntil(dl)
}

// state counts a skipped look as the pop of its own event the spec makes.
func (m *real) state() outcome {
	c := m.k.Counters()
	return outcome{m.k.Now(), m.k.Dispatched(), c.Pops + c.Skipped, fmt.Sprint(m.k.Idle()), m.k.Stopped()}
}

// play runs s on a Kernel and on the spec, round by round, and returns
// the first difference in the trace or the outcome. A failed check
// panics. The real side's ground goes to c.
func play(s *script, check bool, c *cover) (*real, error) {
	k := New(1)
	defer k.Shutdown()
	km := &real{k: k, check: check, procs: make([]*Proc, len(s.progs))}
	km.r = newRun(s, km, c)
	ref := &spec{handback: -1, procs: make([]*specProc, len(s.progs))}
	ref.r = newRun(s, ref, &cover{})
	for n, rd := range s.rounds {
		for _, r := range [...]*run{km.r, ref.r} {
			r.acts(rd.acts, true)
			dl := rd.dl
			switch rd.from {
			case fromNow:
				dl += r.m.now()
			case fromBase:
				dl = max(r.m.now(), r.base+dl)
			}
			r.m.runUntil(dl)
		}
		got, want := km.r.trace, ref.r.trace
		if i := choice.Diverge(got, want); i >= 0 {
			return km, fmt.Errorf("round %d: the trace diverges at line %d:\nkernel %v\nspec   %v", n, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
		if g, w := km.state(), ref.state(); g != w {
			return km, fmt.Errorf("round %d: kernel %+v, spec %+v", n, g, w)
		}
	}
	ctr := k.Counters()
	c.merged += int(ctr.Batched)
	c.skipped += int(ctr.Skipped)
	for i := 1; i < len(km.r.trace); i++ {
		if km.r.trace[i].at == km.r.trace[i-1].at {
			c.shared++
		}
	}
	return km, nil
}
