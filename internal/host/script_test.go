package host

import (
	"fmt"
	"slices"
	"time"

	"mether/internal/choice"
	"mether/internal/sim"
)

// A world is what the scheduler is held to the spec with (spec_test.go):
// the cost model, straight-line programs, wakes from outside the host and
// a tick that wakes every queue. One runner plays it on the spec and three
// ways on the host, so all see the same calls in the same order for as
// long as they agree.
type world struct {
	pr       Params
	progs    [][]op        // by process, in spawn order
	subjects int           // the first programs, cut from one script; the rest are rivals
	wakers   []waker       // in the order they fire
	period   time.Duration // of the tick; 0 for none
	until    time.Duration // the run's end; 0 for when the events run out
	keyed    bool          // sleep and wake with SleepOn and Wakeup, the queue number the key
	tasks    bool          // in the play with tasks, every program that can be one is, not every second
}

type waker struct {
	at   time.Duration
	q    int
	intr bool // through Interrupt
}

// queues is how many wait queues a world has.
const queues = 3

type opKind uint8

const (
	oUse   opKind = iota // Use(d, cpu), made again while again says so, at most reps times
	oSleep               // SleepOnQ(q)
	oFor                 // SleepFor(d)
	oWake                // WakeupQ(q), then the next op at once
)

type op struct {
	kind    opKind
	d       time.Duration
	cpu     CPUKind
	q, reps int
}

// drawWorld draws a world from choose, which returns a choice in [0, n).
// Everything is a multiple of one unit, and the quantum a small multiple,
// so that Uses ending exactly on a quantum boundary — with a rival
// runnable — and same-instant events are common rather than measure-zero.
// The world-level switches come first and the 400 wakers last, so a
// shrunk tape that needs a switch need not keep the wakers.
func drawWorld(choose func(n int) int) world {
	const unit = 100 * time.Microsecond
	w := world{pr: Params{
		Quantum:         time.Duration(4+choose(8)) * unit,
		CtxSwitch:       time.Duration(choose(3)) * unit,
		DispatchLatency: time.Duration(choose(2)) * unit / 2,
		InterruptCost:   time.Duration(choose(3)) * unit,
		WakeBoostDelay:  time.Duration(1+choose(6)) * unit,
	}, until: 2 * time.Second, subjects: 4}
	if choose(4) == 0 {
		w.pr.WakeBoostDelay = 0
	}
	if choose(5) == 0 {
		w.pr.CtxSwitch, w.pr.DispatchLatency = 0, 0
	}
	w.period = time.Duration(5+choose(20)) * unit
	// A third of the worlds repeat each Use of the script one to seven
	// times; more, and the subjects seldom share a queue.
	repeats := choose(3) / 2
	q := int(w.pr.Quantum / unit)
	use := func() time.Duration {
		switch choose(8) {
		case 0:
			return 0
		case 1:
			return time.Duration(q*(3+choose(6))+choose(q)) * unit // ≫ quantum
		case 2:
			return w.pr.Quantum
		}
		return time.Duration(1+choose(q)) * unit
	}
	var script []op
	for i, n := 0, 40+choose(40); i < n; i++ {
		var o op
		if choose(3) == 0 {
			o = op{kind: oSleep, q: choose(queues)}
		} else {
			o = op{d: use(), cpu: CPUKind(1 + choose(2))}
		}
		o.reps = 1 + repeats*choose(7)
		script = append(script, o)
	}
	rivals := make([][]op, choose(3))
	for i := range rivals {
		for j, n := 0, 60+choose(60); j < n; j++ {
			o := op{cpu: CPUUser, reps: 1}
			switch choose(4) {
			case 0:
				o.kind, o.d = oFor, time.Duration(1+choose(2*q))*unit
			case 1:
				o.kind, o.q = oWake, choose(queues)
			default:
				o.d = max(use(), unit)
			}
			rivals[i] = append(rivals[i], o)
		}
	}
	// Every second waker goes through Interrupt.
	w.wakers = make([]waker, 400)
	for i := range w.wakers {
		w.wakers[i] = waker{time.Duration(choose(4000)) * unit / 4, choose(queues), i%2 == 1}
	}
	slices.SortStableFunc(w.wakers, func(a, b waker) int { return int(a.at - b.at) })
	// The subjects run the script each from its own line, so that queues
	// hold several sleepers.
	for i := 0; i < w.subjects; i++ {
		w.progs = append(w.progs, script[i*len(script)/w.subjects:])
	}
	w.progs = append(w.progs, rivals...)
	return w
}

// task says whether program i is a task in the play with tasks: every
// second one (every one, if w.tasks) that has no timed sleep, which a task
// cannot make.
func (w *world) task(i int) bool {
	return (i%2 == 0 || w.tasks) && i < len(w.progs) && !w.keyed && !slices.ContainsFunc(w.progs[i], func(o op) bool { return o.kind == oFor })
}

// machine is what the runner needs from a scheduler: the host and the
// spec provide it.
type machine interface {
	now() time.Duration
	spawn(c *cursor, task bool)
	at(t time.Duration, fn func())
	interrupt(fn func())
	wakeup(q int)
	asleep(q int) int
	run(until time.Duration)
	account() (ctx uint64, busy time.Duration, cpu [][3]time.Duration) // cpu by process and CPUKind
}

// runner is one play of a world on one machine: the log of everything
// observable, in order.
type runner struct {
	w       *world
	m       machine
	log     []entry
	cursors []*cursor
	joined  int    // sleeps that joined a queue someone was already on
	check   func() // after every log line; nil on the spec
	err     string // the first failed check
}

// entry is one log line, formatted only to be shown: a play logs
// thousands, and two lines are the same if their parts are.
type entry struct {
	format string
	n      int
	args   [4]any
}

func (e entry) String() string { return fmt.Sprintf(e.format, e.args[:e.n]...) }

func (r *runner) logf(format string, args ...any) {
	e := entry{format: format}
	e.n = copy(e.args[:], args)
	if r.log = append(r.log, e); r.check != nil {
		r.check()
	}
}

func (r *runner) fail(format string, args ...any) {
	if r.err == "" {
		r.err = fmt.Sprint(r.m.now(), ": ", fmt.Sprintf(format, args...))
	}
}

// cursor is one process's place in its program.
type cursor struct {
	r          *runner
	name       string
	ops        []op
	line, left int // the next op; asks of again still owed for the last Use
	done       bool
}

// next is what the process does next, asked each time it is on the CPU
// with nothing owed: the last Use again while again says so, else the next
// op. A wake is made here; false ends the program.
func (c *cursor) next() (op, bool) {
	if c.left > 0 && c.again() {
		return c.ops[c.line-1], true
	}
	for {
		c.r.logf("%v %s line %d", c.r.m.now(), c.name, c.line)
		if c.done = c.line == len(c.ops); c.done {
			return op{}, false
		}
		o := c.ops[c.line]
		c.line++
		switch {
		case o.kind == oWake:
			c.r.m.wakeup(o.q)
			continue
		case o.kind == oSleep && c.r.m.asleep(o.q) > 0:
			c.r.joined++
		case o.kind == oUse && o.d > 0:
			c.left = o.reps
		}
		return o, true
	}
}

// again is the question UseWhile asks, and the written loop.
func (c *cursor) again() bool {
	c.r.logf("%v %s again %d", c.r.m.now(), c.name, c.left)
	c.left--
	return c.left > 0
}

// play spawns the programs, a process each (task says which are tasks),
// files the outside wakes and runs the world; then it logs the totals.
func (r *runner) play(task func(i int) bool) {
	for i, ops := range r.w.progs {
		r.cursors = append(r.cursors, &cursor{r: r, name: fmt.Sprint("p", i), ops: ops})
		r.m.spawn(r.cursors[i], task(i))
	}
	// Each waker files the next, so that the spec's event list stays short.
	var waker func(i int)
	waker = func(i int) {
		if i < len(r.w.wakers) {
			wk := r.w.wakers[i]
			r.m.at(wk.at, func() {
				if wk.intr {
					r.m.interrupt(func() { r.wake(wk.q) })
				} else {
					r.wake(wk.q)
				}
				waker(i + 1)
			})
		}
	}
	waker(0)
	var tick func() // until every program has ended
	tick = func() {
		for q := 0; q < queues; q++ {
			r.wake(q)
		}
		if slices.ContainsFunc(r.cursors, func(c *cursor) bool { return !c.done }) {
			r.m.at(r.m.now()+r.w.period, tick)
		}
	}
	if r.w.period > 0 {
		r.m.at(r.w.period, tick)
	}
	r.m.run(r.w.until)
	ctx, busy, cpu := r.m.account()
	r.logf("ctx %d busy %v", ctx, busy)
	for i, t := range cpu {
		r.logf("p%d user %v sys %v", i, t[CPUUser], t[CPUSys])
		busy -= t[CPUUser] + t[CPUSys]
	}
	if busy != 0 {
		r.fail("the processes were charged %v less than the host was busy", busy)
	}
}

// wake wakes queue q from outside; one that finds sleepers is logged.
func (r *runner) wake(q int) {
	if n := r.m.asleep(q); n > 0 {
		r.logf("%v wake %d: %d asleep", r.m.now(), q, n)
	}
	if r.m.wakeup(q); r.m.asleep(q) > 0 {
		r.fail("queue %d still holds sleepers after its wake", q)
	}
}

// real plays a world on a Host: every program as a coroutine, or as a
// task where spawn is asked to, each repeated Use made by UseWhile if
// useWhile is set.
type real struct {
	r        *runner
	k        *sim.Kernel
	h        *Host
	qs       [queues]WaitQ
	useWhile bool
}

func (m *real) now() time.Duration            { return m.k.Now() }
func (m *real) at(t time.Duration, fn func()) { m.k.After(t-m.k.Now(), "outside", fn) }
func (m *real) interrupt(fn func())           { m.h.Interrupt(fn) }

func (m *real) queue(q int) *WaitQ {
	if m.r.w.keyed {
		return m.h.keyed[q] // nil for a key nobody slept on
	}
	return &m.qs[q]
}

func (m *real) wakeup(q int) {
	if m.r.w.keyed {
		m.h.Wakeup(q)
	} else {
		m.h.WakeupQ(&m.qs[q])
	}
}

func (m *real) asleep(q int) (n int) {
	if wq := m.queue(q); wq != nil {
		for p := wq.head; p != nil; p = p.waitNext {
			n++
		}
	}
	return n
}

func (m *real) spawn(c *cursor, task bool) {
	if task {
		m.h.SpawnTask(c.name, func() Want {
			switch o, ok := c.next(); {
			case !ok:
				return Want{}
			case o.kind == oSleep:
				return WaitOn(&m.qs[o.q])
			default:
				return UseCPU(o.d, o.cpu)
			}
		})
		return
	}
	m.h.Spawn(c.name, func(p *Proc) {
		for o, ok := c.next(); ok; o, ok = c.next() {
			switch {
			case o.kind == oSleep && m.r.w.keyed:
				p.SleepOn(o.q)
			case o.kind == oSleep:
				p.SleepOnQ(&m.qs[o.q])
			case o.kind == oFor:
				p.SleepFor(o.d)
			case m.useWhile && o.d > 0:
				p.UseWhile(o.d, o.cpu, c.again)
			default:
				p.Use(o.d, o.cpu)
			}
		}
	})
}

// run runs the kernel with the scheduler's trace in the log. A panic
// fails the play.
func (m *real) run(until time.Duration) {
	trace = m.r.logf
	defer func() {
		trace = nil
		if e := recover(); e != nil {
			m.r.fail("panic: %v", e)
		}
	}()
	if until == 0 {
		until = 1<<63 - 1
	}
	m.k.RunUntil(until)
}

func (m *real) account() (ctx uint64, busy time.Duration, cpu [][3]time.Duration) {
	for i, p := range m.h.Procs() {
		if p.Name() != m.r.cursors[i].name {
			m.r.fail("process %d is named %s", i, p.Name())
		}
		cpu = append(cpu, [3]time.Duration{CPUUser: p.User(), CPUSys: p.Sys()})
	}
	return m.h.ContextSwitches(), m.h.BusyTime(), cpu
}

// checkQueues: each queue is well formed (tail is its last sleeper), every
// sleeper on one is blocked and on that queue alone, and a process on none
// carries no link.
func (m *real) checkQueues() {
	var buf [16]*Proc
	on := buf[:0]
	for q := 0; q < queues; q++ {
		wq := m.queue(q)
		if wq == nil {
			continue
		}
		var last *Proc
		for p := wq.head; p != nil; p = p.waitNext {
			if slices.Contains(on, p) || p.state != stateBlocked {
				m.r.fail("%s, in state %d, is on a queue twice or awake", p.name, p.state)
				return
			}
			on, last = append(on, p), p
		}
		if wq.tail != last {
			m.r.fail("queue %d's tail is not its last sleeper", q)
		}
	}
	for _, p := range m.h.procs {
		if p.waitNext != nil && !slices.Contains(on, p) {
			m.r.fail("%s carries a queue link on no queue", p.name)
		}
	}
}

// cover is the ground the worlds covered; lone and beside count slice ends
// run inline in worlds without and with rivals.
type cover struct{ worlds, finished, rivalled, joined, boosts, stale, lone, beside int }

// holds plays w on the spec and then three ways on the host, coroutines,
// tasks (if w has one) and UseWhile, and returns the plays and the first
// line of a play that the spec does not log, a play whose kernel event
// counts differ from the first's, or a failed check.
func holds(w *world, c *cover) (plays []*runner, err error) {
	sp := &spec{r: &runner{w: w}, pr: w.pr}
	sp.r.m = sp
	sp.r.play(func(int) bool { return false })
	ref, events := sp.r.log, ""
	for _, how := range [...]string{"coroutines", "tasks", "UseWhile"} {
		if how == "tasks" && !w.task(0) {
			continue
		}
		k := sim.New(1)
		r := &runner{w: w}
		m := &real{r: r, k: k, h: New(k, 0, "h", w.pr), useWhile: how == "UseWhile"}
		r.m, r.check = m, m.checkQueues
		r.play(func(i int) bool { return how == "tasks" && w.task(i) })
		k.Shutdown()
		if r.err != "" {
			return plays, fmt.Errorf("played with %s: %s", how, r.err)
		}
		if i := choice.Diverge(r.log, ref); i >= 0 {
			return plays, fmt.Errorf("played with %s, leaves the spec at line %d of %d/%d, after %v:\n%s\nspec: %s",
				how, i, len(r.log), len(ref), r.log[max(i-3, 0):i], line(r.log, i), line(ref, i))
		}
		if ev := fmt.Sprint(k.Dispatched(), " dispatched, ", k.PendingEvents(), " pending"); events == "" {
			events = ev
		} else if ev != events {
			return plays, fmt.Errorf("played with %s: kernel events %s, with coroutines %s", how, ev, events)
		}
		if n := int(k.Counters().Continued); how == "UseWhile" && len(w.progs) > w.subjects {
			c.beside += n
		} else if how == "UseWhile" {
			c.lone += n
		}
		plays = append(plays, r)
	}
	c.worlds++
	if !slices.ContainsFunc(plays[0].cursors[:w.subjects], func(c *cursor) bool { return !c.done }) {
		c.finished++
	}
	if len(w.progs) > w.subjects {
		c.rivalled++
	}
	c.joined, c.boosts, c.stale = c.joined+plays[0].joined, c.boosts+sp.boosts, c.stale+sp.stale
	return plays, nil
}

// line renders log line i, or the log's end.
func line(log []entry, i int) string {
	if i < len(log) {
		return log[i].String()
	}
	return "<end of log>"
}
