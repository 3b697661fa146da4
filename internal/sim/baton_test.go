package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests for baton-passing dispatch: the goroutine that pops an event is
// whichever one held the baton, so everything here checks that this is
// invisible — same log, same clock, same Dispatched() — and that every
// goroutine is reaped whatever state its process was left in.

// TestRunUntilNeverMovesClockBack: a deadline behind the clock used to
// set Now() to the deadline, below the wheel cursor.
func TestRunUntilNeverMovesClockBack(t *testing.T) {
	k := New(1)
	k.At(30*time.Millisecond, "late", func() {})
	if end := k.RunUntil(20 * time.Millisecond); end != 20*time.Millisecond {
		t.Fatalf("RunUntil(20ms) = %v", end)
	}
	if end := k.RunUntil(5 * time.Millisecond); end != 20*time.Millisecond {
		t.Errorf("RunUntil(5ms) after 20ms returned %v, want 20ms", end)
	}
	if k.Now() != 20*time.Millisecond {
		t.Errorf("Now() = %v after a past deadline, want 20ms", k.Now())
	}
	var at time.Duration = -1
	k.After(0, "now", func() { at = k.Now() })
	// The same-instant event is due at 20ms: a deadline before that must
	// leave it queued, a later one must run it at 20ms.
	k.RunUntil(10 * time.Millisecond)
	if at != -1 {
		t.Fatalf("After(0) ran at %v under a deadline behind the clock", at)
	}
	k.RunUntil(25 * time.Millisecond)
	if at != 20*time.Millisecond {
		t.Errorf("After(0) ran at %v, want 20ms", at)
	}
	if end := k.Run(); end != 30*time.Millisecond {
		t.Errorf("Run = %v, want 30ms", end)
	}
}

// onRootStack reports whether the caller is running on the goroutine
// that called RunUntil, as opposed to a process goroutine dispatching.
func onRootStack() bool {
	buf := make([]byte, 8192)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*Kernel).RunUntil")
}

// TestSplitDeadlineWhileProcHoldsBaton: RunUntil(d1); RunUntil(d2) must
// equal RunUntil(d2) when d1 expires on a process goroutine.
func TestSplitDeadlineWhileProcHoldsBaton(t *testing.T) {
	run := func(deadlines ...time.Duration) (log []string, disp uint64, now time.Duration) {
		k := New(1)
		note := func(s string) { log = append(log, fmt.Sprintf("%v %s", k.Now(), s)) }
		var b *Proc
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Sleep(10 * time.Millisecond)
				note("a")
				b.Wake()
			}
		})
		b = k.Spawn("b", func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Park("b")
				note("b")
			}
		})
		for i := 1; i <= 12; i++ {
			k.At(time.Duration(i)*5*time.Millisecond+time.Millisecond, "cb", func() {
				if k.Now() == 21*time.Millisecond && onRootStack() {
					t.Error("the last callback before d1 ran on the root goroutine; the test no longer covers a process holding the baton at the deadline")
				}
				note("cb")
			})
		}
		for _, d := range deadlines {
			now = k.RunUntil(d)
			note("deadline")
		}
		disp = k.Dispatched()
		k.Shutdown()
		return
	}
	const d1, d2 = 23 * time.Millisecond, 70 * time.Millisecond
	wantLog, wantDisp, wantNow := run(d2)
	gotLog, gotDisp, gotNow := run(d1, d2)
	// The split run logs one extra line, at d1.
	var merged []string
	for _, l := range gotLog {
		if l != fmt.Sprintf("%v deadline", d1) {
			merged = append(merged, l)
		}
	}
	if strings.Join(merged, "\n") != strings.Join(wantLog, "\n") {
		t.Errorf("split run diverged:\n%v\nwant\n%v", merged, wantLog)
	}
	if gotDisp != wantDisp || gotNow != wantNow {
		t.Errorf("split run: dispatched %d now %v, want %d %v", gotDisp, gotNow, wantDisp, wantNow)
	}
}

// waitGoroutines polls until the goroutine count is back to want: a
// reaped goroutine hands the baton back a few instructions before it
// actually exits.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%d goroutines alive, want %d", runtime.NumGoroutine(), want)
}

// TestShutdownReapsEveryState: processes never started, sleeping,
// parked and dead all give their goroutine back.
func TestShutdownReapsEveryState(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(1)
	for i := 0; i < 3; i++ {
		k.Spawn("dead", func(p *Proc) { p.Sleep(time.Millisecond) })
		k.Spawn("sleeping", func(p *Proc) { p.Sleep(time.Hour) })
		k.Spawn("parked", func(p *Proc) { p.Park("forever") })
	}
	k.At(5*time.Millisecond, "late spawn", func() {
		// Spawned by the last event before the deadline: its start event
		// is queued but never dispatched.
		for i := 0; i < 3; i++ {
			k.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
		}
		k.Stop()
	})
	k.RunUntil(10 * time.Millisecond)
	k.Shutdown()
	waitGoroutines(t, before)
	if idle := k.Idle(); len(idle) != 0 {
		t.Errorf("still parked after Shutdown: %v", idle)
	}
	// A kernel that never ran at all.
	k = New(2)
	k.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	k.Shutdown()
	waitGoroutines(t, before)
}

// TestPanicResurfacesFromRunUntil: whichever goroutine was dispatching,
// a panic in a callback or a process body comes out of Run on the
// caller's goroutine with its original value, and Shutdown still reaps.
func TestPanicResurfacesFromRunUntil(t *testing.T) {
	type boom struct{ why string }
	cases := []struct {
		name  string
		build func(k *Kernel, v any)
	}{
		{"callback on root", func(k *Kernel, v any) {
			k.At(time.Millisecond, "boom", func() { panic(v) })
		}},
		{"callback on a parked process", func(k *Kernel, v any) {
			k.Spawn("holder", func(p *Proc) { p.Park("holds the baton") })
			k.At(time.Millisecond, "boom", func() {
				if onRootStack() {
					t.Error("callback ran on the root goroutine")
				}
				panic(v)
			})
		}},
		{"callback on an exited process", func(k *Kernel, v any) {
			k.Spawn("gone", func(p *Proc) {})
			k.At(time.Millisecond, "boom", func() {
				if onRootStack() {
					t.Error("callback ran on the root goroutine")
				}
				panic(v)
			})
		}},
		{"process body", func(k *Kernel, v any) {
			k.Spawn("bystander", func(p *Proc) { p.Park("bystander") })
			k.Spawn("bomber", func(p *Proc) {
				p.Sleep(time.Millisecond)
				panic(v)
			})
		}},
		{"process body before its first block", func(k *Kernel, v any) {
			k.Spawn("bomber", func(p *Proc) { panic(v) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := New(1)
			want := &boom{c.name}
			c.build(k, want)
			k.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			if got != any(want) {
				t.Errorf("recovered %v, want the original %v", got, want)
			}
			k.Shutdown()
			waitGoroutines(t, before)
		})
	}
}

// ---- differential test against a goroutine-free reference ----
//
// A script is a set of straight-line programs. The same script is run
// by real processes on the kernel and by refMachine, a single-threaded
// interpreter that keeps processes as program counters and events in a
// plain list; the (time, label) logs, the clock, Idle() and
// Dispatched() must agree after every RunUntil.

type opKind uint8

const (
	opSleep opKind = iota
	opPark
	opAwait     // Await(a reason on odd pcs), until a callback's Resume
	opWake      // Wake(arg)
	opSpawn     // start program arg
	opAfter     // After(d) running callback cb; the op index names the timer
	opCoalesced // AfterCoalesced(d) running callback cb
	opCancel    // cancel the timer armed by op arg of this program, if live
	opStop
)

type scriptOp struct {
	kind opKind
	d    time.Duration
	arg  int
	cb   callback
}

// callback is what a scheduled event does besides logging.
type callback struct {
	wake  int           // Wake(wake) if >= 0
	hand  int           // Resume(hand) if >= 0 and it is in Await
	spawn int           // start program spawn if >= 0
	chain time.Duration // After(chain) a bare logging callback if >= 0
	stop  bool
}

// machine is what a script needs from a kernel; the real Kernel and
// refMachine both provide it.
type machine interface {
	Now() time.Duration
	after(d time.Duration, fn func()) (cancel func())
	afterCoalesced(d time.Duration, fn func())
	stop()
	wake(pid int)
	resume(pid int)
	spawn(pid int)
}

// scriptRun is the per-execution state of a script: the log and the
// bookkeeping that keeps the script inside the kernel's contract (spawn
// a program once, cancel a timer once and only before it fires, Resume
// a process once per Await).
type scriptRun struct {
	progs    [][]scriptOp
	m        machine
	log      []string
	spawned  []bool
	awaiting []bool            // in Await, no Resume issued yet
	hands    int               // Resumes issued
	live     map[[2]int]func() // armed, unfired timers -> cancel
}

func newScriptRun(progs [][]scriptOp, m machine) *scriptRun {
	return &scriptRun{progs: progs, m: m, spawned: make([]bool, len(progs)),
		awaiting: make([]bool, len(progs)), live: map[[2]int]func(){}}
}

// awaitReason is what op pc gives Await: odd pcs are listed by Idle.
func awaitReason(pc int) any {
	if pc%2 == 1 {
		return "await"
	}
	return nil
}

func (r *scriptRun) note(label string) {
	r.log = append(r.log, fmt.Sprintf("%d %s", r.m.Now(), label))
}

func (r *scriptRun) start(pid int) {
	if !r.spawned[pid] {
		r.spawned[pid] = true
		r.m.spawn(pid)
	}
}

func (r *scriptRun) fire(label string, cb callback) {
	r.note(label)
	if cb.wake >= 0 && r.spawned[cb.wake] {
		r.m.wake(cb.wake)
	}
	if cb.hand >= 0 {
		r.hand(cb.hand)
	}
	if cb.spawn >= 0 {
		r.start(cb.spawn)
	}
	if cb.chain >= 0 {
		r.m.after(cb.chain, func() { r.note(label + "+") })
	}
	if cb.stop {
		r.m.stop()
	}
}

// hand Resumes pid if it is in Await and nobody has yet.
func (r *scriptRun) hand(pid int) {
	if r.awaiting[pid] {
		r.awaiting[pid] = false
		r.hands++
		r.m.resume(pid)
	}
}

// await is what program pid does before it blocks in the Await of op pc:
// half the time it arms the event that will resume it, as a host process
// schedules the end of its slice; otherwise it is at the mercy of the
// script's callbacks.
func (r *scriptRun) await(pid, pc int, o scriptOp) {
	r.awaiting[pid] = true
	if o.arg%2 == 0 {
		r.m.after(o.d, func() {
			r.note("alarm " + opLabel(pid, pc))
			r.hand(pid)
		})
	}
}

// opLabel names op pc of program pid in the log, once the op is done.
func opLabel(pid, pc int) string { return fmt.Sprintf("p%d.%d", pid, pc) }

// exec runs one non-blocking op of program pid.
func (r *scriptRun) exec(pid, pc int, o scriptOp) {
	label := opLabel(pid, pc)
	switch o.kind {
	case opWake:
		if o.arg != pid && r.spawned[o.arg] {
			r.m.wake(o.arg)
		}
	case opSpawn:
		r.start(o.arg)
	case opAfter:
		key := [2]int{pid, pc}
		r.live[key] = r.m.after(o.d, func() {
			delete(r.live, key)
			r.fire("cb "+label, o.cb)
		})
	case opCoalesced:
		r.m.afterCoalesced(o.d, func() { r.fire("co "+label, o.cb) })
	case opCancel:
		key := [2]int{pid, o.arg}
		if cancel := r.live[key]; cancel != nil {
			delete(r.live, key)
			cancel()
		}
	case opStop:
		r.m.stop()
	}
	r.note(label)
}

// realMachine runs programs as processes of a real Kernel.
type realMachine struct {
	*Kernel
	r     *scriptRun
	procs []*Proc
}

func (m *realMachine) after(d time.Duration, fn func()) func() { return m.After(d, "t", fn).Cancel }
func (m *realMachine) afterCoalesced(d time.Duration, fn func()) {
	m.AfterCoalesced(d, "c", fn)
}
func (m *realMachine) stop()          { m.Stop() }
func (m *realMachine) wake(pid int)   { m.procs[pid].Wake() }
func (m *realMachine) resume(pid int) { m.procs[pid].Resume() }
func (m *realMachine) spawn(pid int) {
	m.procs[pid] = m.Spawn(fmt.Sprintf("p%d", pid), func(p *Proc) {
		for pc, o := range m.r.progs[pid] {
			switch o.kind {
			case opSleep:
				p.Sleep(o.d)
				m.r.note(opLabel(pid, pc))
			case opPark:
				p.Park(nil)
				m.r.note(opLabel(pid, pc))
			case opAwait:
				m.r.await(pid, pc, o)
				p.Await(awaitReason(pc))
				m.r.note(opLabel(pid, pc))
			default:
				m.r.exec(pid, pc, o)
			}
		}
	})
}

// refMachine is the reference: no goroutines, no wheel, no run queue,
// no coalescing. Events sit in a slice and the next one is the minimum
// (at, seq); a process is a program counter plus the kernel's state
// machine, stepped from its resume event until it blocks.
type refMachine struct {
	r          *scriptRun
	now        time.Duration
	seq        uint64
	dispatched uint64
	stopped    bool
	handback   int // the process the running callback resumed, or -1
	events     []refEv
	procs      []*refProc // by pid
	order      []int      // pids in spawn order, for Idle()
}

type refEv struct {
	at   time.Duration
	seq  uint64
	fn   func()
	proc int // resume event if >= 0
}

type refProc struct {
	pc          int
	state       procState
	wakePending bool
}

func (m *refMachine) Now() time.Duration { return m.now }

func (m *refMachine) schedule(d time.Duration, fn func(), proc int) uint64 {
	m.seq++
	m.events = append(m.events, refEv{m.now + d, m.seq, fn, proc})
	return m.seq
}

func (m *refMachine) after(d time.Duration, fn func()) func() {
	seq := m.schedule(d, fn, -1)
	return func() {
		for i, e := range m.events {
			if e.seq == seq {
				m.events = append(m.events[:i], m.events[i+1:]...)
				return
			}
		}
	}
}

// An uncoalesced event owns the (time, seq) slot the batch would have
// run the callback in, and counts one dispatch like a batched callback;
// a Resume from it is an ordinary hand-back, after which the next event
// is the one the batch's next callback would have been.
func (m *refMachine) afterCoalesced(d time.Duration, fn func()) { m.schedule(d, fn, -1) }
func (m *refMachine) stop()                                     { m.stopped = true }
func (m *refMachine) resume(pid int)                            { m.handback = pid }

func (m *refMachine) spawn(pid int) {
	m.procs[pid] = &refProc{state: procNew}
	m.order = append(m.order, pid)
	m.schedule(0, nil, pid)
}

func (m *refMachine) wake(pid int) {
	switch p := m.procs[pid]; p.state {
	case procDead:
	case procParked:
		p.state = procWaiting
		m.schedule(0, nil, pid)
	default:
		p.wakePending = true
	}
}

// step runs process pid from its resume event until it blocks or exits.
func (m *refMachine) step(pid int) {
	p, prog := m.procs[pid], m.r.progs[pid]
	if p.state != procNew {
		// Returning from the Sleep, Park or Await at pc-1.
		m.r.note(opLabel(pid, p.pc-1))
	}
	p.state = procRunning
	for p.pc < len(prog) {
		o := prog[p.pc]
		p.pc++
		switch o.kind {
		case opSleep:
			p.state = procWaiting
			m.schedule(o.d, nil, pid)
			return
		case opPark:
			if p.wakePending {
				p.wakePending = false
				m.r.note(opLabel(pid, p.pc-1))
				continue
			}
			p.state = procParked
			return
		case opAwait:
			p.state = procAwaiting
			m.r.await(pid, p.pc-1, o)
			return
		default:
			m.r.exec(pid, p.pc-1, o)
		}
	}
	p.state = procDead
}

func (m *refMachine) RunUntil(deadline time.Duration) time.Duration {
	for !m.stopped {
		if len(m.events) == 0 {
			break
		}
		first := 0
		for i, e := range m.events {
			if b := m.events[first]; e.at < b.at || e.at == b.at && e.seq < b.seq {
				first = i
			}
		}
		e := m.events[first]
		if e.at > deadline {
			if deadline > m.now {
				m.now = deadline
			}
			break
		}
		m.events = append(m.events[:first], m.events[first+1:]...)
		m.now = e.at
		m.dispatched++
		if e.proc >= 0 {
			m.step(e.proc)
		} else {
			e.fn()
			// A hand-back belongs to the callback's event: the process
			// continues before anything else, a Stop included.
			if pid := m.handback; pid >= 0 {
				m.handback = -1
				m.step(pid)
			}
		}
	}
	return m.now
}

func (m *refMachine) idle() []string {
	var out []string
	for _, pid := range m.order {
		p := m.procs[pid]
		if p.state == procParked || p.state == procAwaiting && awaitReason(p.pc-1) != nil {
			out = append(out, fmt.Sprintf("p%d", pid))
		}
	}
	return out
}

// scriptDelay draws from a small palette so that ties, same-instant
// events and wheel-level boundaries are all common.
func scriptDelay(rng *rand.Rand) time.Duration {
	palette := []time.Duration{0, 0, 1, 2, 255, 256, 257, 1000, 1000, 65536, 70000, 1 << 20}
	return palette[rng.Intn(len(palette))]
}

func randomScript(rng *rand.Rand) [][]scriptOp {
	nprog := 3 + rng.Intn(6)
	randCB := func() callback {
		cb := callback{wake: -1, hand: rng.Intn(nprog), spawn: -1, chain: -1}
		switch rng.Intn(8) {
		case 0, 1, 2:
			cb.wake = rng.Intn(nprog)
		case 3:
			cb.spawn = rng.Intn(nprog)
		case 4:
			cb.chain = scriptDelay(rng)
		case 5:
			cb.wake, cb.chain = rng.Intn(nprog), 0
		}
		return cb
	}
	progs := make([][]scriptOp, nprog)
	for pid := range progs {
		var timers []int
		for pc, n := 0, 4+rng.Intn(24); pc < n; pc++ {
			o := scriptOp{d: scriptDelay(rng), arg: rng.Intn(nprog), cb: randCB()}
			switch x := rng.Intn(100); {
			case x < 26:
				o.kind = opSleep
			case x < 34:
				o.kind = opPark
			case x < 42:
				o.kind = opAwait
			case x < 60:
				o.kind = opWake
			case x < 66:
				o.kind = opSpawn
			case x < 80:
				o.kind = opAfter
				timers = append(timers, pc)
			case x < 90:
				o.kind = opCoalesced
			case x < 99 && len(timers) > 0:
				o.kind = opCancel
				o.arg = timers[rng.Intn(len(timers))]
			default:
				o.kind = opWake
			}
			progs[pid] = append(progs[pid], o)
		}
	}
	// One script in four stops itself, from a body or from a callback.
	if rng.Intn(4) == 0 {
		p := progs[rng.Intn(nprog)]
		if o := &p[len(p)/2+rng.Intn(len(p)-len(p)/2)]; rng.Intn(2) == 0 || o.kind != opAfter && o.kind != opCoalesced {
			o.kind = opStop
		} else {
			o.cb.stop = true
		}
	}
	return progs
}

func TestBatonMatchesGoroutineFreeReference(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 60
	}
	before := runtime.NumGoroutine()
	hands := 0
	for seed := int64(1); seed <= int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs := randomScript(rng)
		roots := 1 + rng.Intn(len(progs))
		// Deadlines: increasing, one step back behind the clock, then
		// run to exhaustion.
		var deadlines []time.Duration
		d := time.Duration(0)
		for i, n := 0, 2+rng.Intn(5); i < n; i++ {
			d += scriptDelay(rng) + time.Duration(rng.Intn(3000))
			deadlines = append(deadlines, d)
		}
		deadlines = append(deadlines, d/2, 1<<63-1)

		k := New(seed)
		km := &realMachine{Kernel: k, procs: make([]*Proc, len(progs))}
		km.r = newScriptRun(progs, km)
		ref := &refMachine{procs: make([]*refProc, len(progs)), handback: -1}
		ref.r = newScriptRun(progs, ref)
		for pid := 0; pid < roots; pid++ {
			km.r.start(pid)
			ref.r.start(pid)
		}
		for _, dl := range deadlines {
			gotNow, wantNow := k.RunUntil(dl), ref.RunUntil(dl)
			got, want := strings.Join(km.r.log, "\n"), strings.Join(ref.r.log, "\n")
			if got != want {
				t.Fatalf("seed %d deadline %d: logs diverge\nkernel:\n%s\nreference:\n%s", seed, dl, got, want)
			}
			if gotNow != wantNow || k.Now() != wantNow {
				t.Fatalf("seed %d deadline %d: clock %d (returned %d), reference %d", seed, dl, k.Now(), gotNow, wantNow)
			}
			if k.Dispatched() != ref.dispatched {
				t.Fatalf("seed %d deadline %d: Dispatched() = %d, reference %d", seed, dl, k.Dispatched(), ref.dispatched)
			}
			if got, want := fmt.Sprint(k.Idle()), fmt.Sprint(ref.idle()); got != want {
				t.Fatalf("seed %d deadline %d: Idle() = %s, reference %s", seed, dl, got, want)
			}
			if k.Stopped() != ref.stopped {
				t.Fatalf("seed %d deadline %d: Stopped() = %v, reference %v", seed, dl, k.Stopped(), ref.stopped)
			}
		}
		hands += km.r.hands
		k.Shutdown()
	}
	// The comparison is only as good as the ground it covers.
	if hands < 2*rounds {
		t.Errorf("%d hand-backs in %d scripts", hands, rounds)
	}
	waitGoroutines(t, before)
}

// ---- Await and Resume: the same-event hand-back ----

// TestResumeCostsAHandOffOnlyAcrossStacks: a process Resumed by a
// callback it dispatched itself continues inline, as on its own wake
// event; Resumed from another holder's stack it costs exactly one
// hand-off. Either way no event is scheduled for it.
func TestResumeCostsAHandOffOnlyAcrossStacks(t *testing.T) {
	k := New(1)
	defer k.Shutdown()
	var log []string
	var a *Proc
	a = k.Spawn("a", func(p *Proc) {
		// The only process: it holds the baton through every Await.
		for i := 0; i < 3; i++ {
			k.After(time.Millisecond, "alarm", a.Resume)
			before, events := k.Counters().Resumes, k.Dispatched()
			p.Await(nil)
			if k.Counters().Resumes != before || k.Dispatched() != events+1 {
				t.Errorf("own hand-back %d: %d resumes and %d events, want 0 and 1", i, k.Counters().Resumes-before, k.Dispatched()-events)
			}
		}
		log = append(log, fmt.Sprint(k.Now(), " a done"))
	})
	k.Run()
	if k.Counters().Resumes != 1 { // a's start
		t.Errorf("Resumes() = %d after a solo run, want 1", k.Counters().Resumes)
	}

	// Now b blocks last and so dispatches a2's alarm on its own stack.
	a = k.Spawn("a2", func(p *Proc) {
		k.After(2*time.Millisecond, "alarm", a.Resume)
		p.Await(nil)
		log = append(log, fmt.Sprint(k.Now(), " a2 resumed"))
	})
	k.Spawn("b", func(p *Proc) {
		p.Await("never resumed")
	})
	before, events := k.Counters().Resumes, k.Dispatched()
	k.Run()
	// Two starts and the one hand-off from b's stack to a2; three events.
	if got := k.Counters().Resumes - before; got != 3 {
		t.Errorf("%d resumes for two starts and one cross-stack hand-back, want 3", got)
	}
	if got := k.Dispatched() - events; got != 3 {
		t.Errorf("%d events for two starts and one alarm, want 3: a hand-back schedules nothing", got)
	}
	if fmt.Sprint(k.Idle()) != "[b]" {
		t.Errorf("Idle() = %v, want [b]: an Await with a reason is listed, a finished process is not", k.Idle())
	}
	if want := "[3ms a done 5ms a2 resumed]"; fmt.Sprint(log) != want {
		t.Errorf("log %v, want %v", log, want)
	}
}

// TestResumeOfDeadProcessIsIgnored: naming a process that has exited
// leaves no hand-back for the next callback to trip over.
func TestResumeOfDeadProcessIsIgnored(t *testing.T) {
	k := New(1)
	defer k.Shutdown()
	gone := k.Spawn("gone", func(p *Proc) {})
	ran := false
	k.After(time.Millisecond, "late", gone.Resume)
	k.After(2*time.Millisecond, "after", func() { ran = true })
	k.Run()
	if !gone.Dead() || !ran || k.Counters().Resumes != 1 {
		t.Errorf("dead %v, later callback ran %v, %d resumes; want true, true, 1", gone.Dead(), ran, k.Counters().Resumes)
	}
}

// TestStopDoesNotCancelHandBack: the continuation belongs to the event,
// as it does to a process's own wake event; Stop takes effect when the
// process next blocks.
func TestStopDoesNotCancelHandBack(t *testing.T) {
	k := New(1)
	defer k.Shutdown()
	var log []string
	var a *Proc
	a = k.Spawn("a", func(p *Proc) {
		k.After(time.Millisecond, "alarm", func() {
			a.Resume()
			k.Stop()
		})
		k.After(time.Millisecond, "same instant, later seq", func() { log = append(log, "later") })
		p.Await(nil)
		log = append(log, "resumed")
		p.Sleep(time.Millisecond)
		log = append(log, "slept")
	})
	if end := k.Run(); end != time.Millisecond || fmt.Sprint(log) != "[resumed]" {
		t.Errorf("run ended at %v with log %v, want 1ms and [resumed]", end, log)
	}
}

// TestShutdownUnwindsAwait: a coroutine suspended in Await is unwound
// through its deferred calls like one in Sleep or Park.
func TestShutdownUnwindsAwait(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(1)
	unwound := 0
	for i := 0; i < 3; i++ {
		k.Spawn("awaiting", func(p *Proc) {
			defer func() { unwound++ }()
			p.Await("forever")
			t.Error("an Await nobody Resumed returned")
		})
	}
	k.Run()
	if len(k.Idle()) != 3 {
		t.Errorf("Idle() = %v, want all three", k.Idle())
	}
	k.Shutdown()
	if unwound != 3 || len(k.Idle()) != 0 {
		t.Errorf("Shutdown unwound %d of 3, Idle() = %v", unwound, k.Idle())
	}
	waitGoroutines(t, before)
}

// TestResumeMisuseFailsLoudly: a hand-back for a process that is not in
// Await (a process naming itself from its own stack) would be taken by
// the next unrelated callback. It is a bug in the caller and panics
// where it is made.
func TestResumeMisuseFailsLoudly(t *testing.T) {
	k := New(2)
	k.Spawn("self", func(p *Proc) { p.Resume() })
	defer func() {
		if recover() == nil {
			t.Errorf("Resume of a running process did not panic")
		}
		k.Shutdown()
	}()
	k.Run()
}

// TestResumeFromCoalescedCallback: the second of three callbacks merged
// into one event Resumes a process. The process runs where it would if
// each callback were its own event — after the second, before the third
// — and what it schedules for the same instant runs after the third,
// which runs as soon as the process blocks. Whether the process holds
// the baton itself or another one dispatches the batch, each callback
// counts one dispatch, the continuation none.
func TestResumeFromCoalescedCallback(t *testing.T) {
	for _, holder := range []bool{false, true} {
		k := New(1)
		var log []string
		note := func(s string) { log = append(log, fmt.Sprintf("%v %s %d", k.Now(), s, k.Dispatched())) }
		var a *Proc
		a = k.Spawn("a", func(p *Proc) {
			p.Await(nil)
			note("proc")
			k.After(0, "after0", func() { note("after0") })
			k.AfterCoalesced(0, "coalesced0", func() { note("coalesced0") })
		})
		spawns := 1
		if holder {
			// Blocks last, so the batch runs on its stack.
			k.Spawn("b", func(p *Proc) { p.Await("never resumed") })
			spawns++
		}
		k.AfterCoalesced(time.Millisecond, "irq", func() { note("cb1") })
		k.AfterCoalesced(time.Millisecond, "irq", func() { note("cb2"); a.Resume() })
		k.AfterCoalesced(time.Millisecond, "irq", func() { note("cb3") })
		if got := k.PendingEvents(); got != spawns+1 {
			t.Errorf("holder %v: %d events pending, want %d spawns and one batch", holder, got, spawns)
		}
		k.Run()
		// Dispatched() after the spawns: the continuation adds none.
		n := spawns
		want := fmt.Sprintf("1ms cb1 %d, 1ms cb2 %d, 1ms proc %d, 1ms cb3 %d, 1ms after0 %d, 1ms coalesced0 %d",
			n+1, n+2, n+2, n+3, n+4, n+5)
		if got := strings.Join(log, ", "); got != want {
			t.Errorf("holder %v: ran\n%s\nwant\n%s", holder, got, want)
		}
		if pops := k.Counters().Pops; pops != uint64(spawns+3) {
			t.Errorf("holder %v: %d kernel events popped, want %d spawns, the batch, after0 and coalesced0", holder, pops, spawns)
		}
		k.Shutdown()
	}
}

// TestCoalescedBatchNotReusedAfterResume: the trap of an interrupted
// batch. Resume ends its event, which is released, and the process that
// runs next files a coalesced event of its own that reuses the very
// Event. A merge into that event must start a new batch, not append to
// the interrupted one that still waits to finish its instant — that
// would run the merged callback at the old instant, before its peer.
func TestCoalescedBatchNotReusedAfterResume(t *testing.T) {
	k := New(1)
	defer k.Shutdown()
	var log []string
	note := func(s string) func() { return func() { log = append(log, fmt.Sprint(k.Now(), " ", s)) } }
	var a *Proc
	var batchEv *Event
	a = k.Spawn("a", func(p *Proc) {
		p.Await(nil)
		note("proc")()
		k.AfterCoalesced(time.Millisecond, "x", note("x1"))
		if k.coalEv != batchEv {
			t.Error("the process's coalesced event is not the interrupted batch's recycled Event: the test no longer covers the trap")
		}
		k.AfterCoalesced(time.Millisecond, "x", note("x2"))
	})
	k.AfterCoalesced(time.Millisecond, "irq", func() { note("c1")(); a.Resume() })
	batchEv = k.coalEv
	k.AfterCoalesced(time.Millisecond, "irq", note("c2"))
	k.AfterCoalesced(time.Millisecond, "irq", note("c3"))
	k.Run()
	if got, want := strings.Join(log, ", "), "1ms c1, 1ms proc, 1ms c2, 1ms c3, 2ms x1, 2ms x2"; got != want {
		t.Errorf("ran %s\nwant %s", got, want)
	}
}

// ---- coroutine hand-off: panics, Goexit and Shutdown by iter.Pull's rules ----

// midYield spawns n processes that each start, block for an hour and so
// hand the baton on through RunUntil: from then on they sit suspended
// inside yield. started counts the ones that got that far, unwound the
// ones whose deferred calls Shutdown has run.
func midYield(k *Kernel, n int, started, unwound *int) {
	for i := 0; i < n; i++ {
		k.Spawn("bystander", func(p *Proc) {
			defer func() { *unwound++ }()
			*started++
			p.Sleep(time.Hour)
		})
	}
}

// TestPanicWhileOthersSitMidYield: the panic leaves RunUntil while
// other coroutines are suspended; Shutdown still unwinds each of them
// once and the runtime gets every goroutine back.
func TestPanicWhileOthersSitMidYield(t *testing.T) {
	cases := []struct {
		name  string
		build func(k *Kernel, v any)
	}{
		{"process body", func(k *Kernel, v any) {
			k.Spawn("bomber", func(p *Proc) {
				p.Sleep(time.Millisecond)
				panic(v)
			})
		}},
		{"callback on a suspended process's stack", func(k *Kernel, v any) {
			k.Spawn("holder", func(p *Proc) { p.Park("holds the baton") })
			k.At(time.Millisecond, "boom", func() {
				if onRootStack() {
					t.Error("callback ran on the root goroutine")
				}
				panic(v)
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := New(1)
			var started, unwound int
			midYield(k, 3, &started, &unwound)
			want := &struct{ why string }{c.name}
			c.build(k, want)
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			if got != any(want) {
				t.Errorf("recovered %v, want the original %v", got, want)
			}
			if started != 3 || unwound != 0 {
				t.Fatalf("at the panic %d bystanders had started and %d unwound, want 3 and 0", started, unwound)
			}
			k.Shutdown()
			if unwound != 3 {
				t.Errorf("Shutdown unwound %d bystanders, want 3", unwound)
			}
			waitGoroutines(t, before)

			// Nothing of the wreck outlives it: a fresh kernel runs.
			k = New(2)
			var woke time.Duration
			k.Spawn("fresh", func(p *Proc) {
				p.Sleep(time.Second)
				woke = p.Now()
			})
			if end := k.RunUntil(time.Minute); end != time.Second || woke != time.Second {
				t.Errorf("fresh kernel: RunUntil = %v, process woke at %v, want 1s both", end, woke)
			}
			k.Shutdown()
			waitGoroutines(t, before)
		})
	}
}

// TestShutdownTwiceAndBeforeAnyRun: stop() before a coroutine's first
// next() never runs the body, and a second Shutdown finds nothing to do.
func TestShutdownTwiceAndBeforeAnyRun(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(1)
	for i := 0; i < 4; i++ {
		k.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	}
	k.Shutdown()
	k.Shutdown()
	waitGoroutines(t, before)
	if end := k.Run(); end != 0 || k.Dispatched() != 0 {
		t.Errorf("a shut-down kernel ran: now %v, %d events", end, k.Dispatched())
	}

	k = New(2)
	var started, unwound int
	midYield(k, 3, &started, &unwound)
	k.Spawn("parked", func(p *Proc) {
		defer func() { unwound++ }()
		p.Park("forever")
	})
	k.RunUntil(time.Minute)
	k.Shutdown()
	k.Shutdown()
	if started != 3 || unwound != 4 {
		t.Errorf("%d bystanders started, %d processes unwound by two Shutdowns, want 3 and 4", started, unwound)
	}
	waitGoroutines(t, before)
}

// TestGoexitInProcessEndsTheCaller: t.FailNow (runtime.Goexit) in a
// process body used to strand the baton and deadlock RunUntil; now it
// ends the goroutine that called RunUntil, like a t.FailNow there.
func TestGoexitInProcessEndsTheCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(1)
	var started, unwound int
	midYield(k, 2, &started, &unwound)
	k.Spawn("quitter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunUntil still blocked 10s after a Goexit in a process body")
	}
	if returned {
		t.Error("RunUntil returned normally after a Goexit in a process body")
	}
	k.Shutdown()
	if started != 2 || unwound != 2 {
		t.Errorf("%d bystanders started, %d unwound, want 2 and 2", started, unwound)
	}
	waitGoroutines(t, before)
}

// spawnAllocCeiling is what one Spawn may allocate: the Proc, the body
// closure and iter.Pull's own (its captured variables, its closures, the
// coro) as of go1.24. Event slabs, k.procs and the run queue grow by
// doubling and amortise to less than one. A toolchain whose iter.Pull
// costs more, or a diagnostic name built per process again, fails here
// rather than in a benchmark's allocs_per_event.
const spawnAllocCeiling = 13

func TestSpawnAllocations(t *testing.T) {
	k := New(1)
	body := func(p *Proc) {}
	got := testing.AllocsPerRun(200, func() { k.Spawn("p", body) })
	k.Shutdown()
	if got > spawnAllocCeiling {
		t.Errorf("Kernel.Spawn allocates %v objects, ceiling %d", got, spawnAllocCeiling)
	}
}
