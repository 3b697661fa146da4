package host

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mether/internal/sim"
)

const ms = time.Millisecond

func testParams() Params {
	return Params{Quantum: 10 * ms, CtxSwitch: ms, TrapCost: ms, SyscallCost: ms, InterruptCost: ms}
}

func boostParams(delay time.Duration) Params {
	p := testParams()
	p.Quantum, p.WakeBoostDelay = 70*ms, delay
	return p
}

// A spin's looks lose until queue 2, which no fixed world wakes from
// outside, is woken: spin(d, n) is n Uses.
func use(d time.Duration, cpu CPUKind) op { return op{d: d, cpu: cpu, reps: 1} }
func spin(d time.Duration, n int) op      { return op{d: d, cpu: CPUUser, q: 2, reps: n} }
func sleepOn(q int) op                    { return op{kind: oSleep, q: q} }
func sleepFor(d time.Duration) op         { return op{kind: oFor, d: d} }
func wake(q int) op                       { return op{kind: oWake, q: q} }

func repeat(n int, ops ...op) (out []op) {
	for ; n > 0; n-- {
		out = append(out, ops...)
	}
	return out
}

func copies(n int, ops ...op) (out [][]op) {
	for ; n > 0; n-- {
		out = append(out, ops)
	}
	return out
}

// progs is a world of programs that runs until its events run out.
func progs(pr Params, wakers []waker, ps ...[]op) world {
	return world{pr: pr, progs: ps, subjects: len(ps), wakers: wakers}
}

// Fixed worlds: one table, each row held to the spec by all three plays and
// to the lines (joined by ", ") its log must hold in order, and to the
// fewest looks its UseWhile play must leave to the kernel's lane. A row is
// played by the test named in it, which keeps the name of the test the row
// once was.
type fixed struct {
	test    string
	w       world
	want    string
	skipped int
}

const us = time.Microsecond

var fixedWorlds = []fixed{
	// Alone on the CPU, no switch at a quantum boundary.
	{"TestSingleProcUsesCPUUninterrupted", progs(testParams(), nil, []op{use(35*ms, CPUUser)}), "1ms h: dispatch p0, 36ms p0 line 1, ctx 1 busy 36ms", 0},
	{"TestUserSysAccounting", progs(testParams(), nil, []op{use(5*ms, CPUUser), use(3*ms, CPUSys)}), "p0 user 5ms sys 4ms", 0},
	{"TestRoundRobinPreemption", progs(testParams(), nil, []op{use(15*ms, CPUUser)}, []op{use(15*ms, CPUUser)}),
		"11ms h: quantum expire p0 (runq 1), 22ms h: quantum expire p1 (runq 1), 28ms p0 line 1, 34ms p1 line 1, ctx 4 busy 34ms", 0},
	{"TestBusyTimeAccounting", progs(testParams(), nil, []op{use(10*ms, CPUUser)}), "ctx 1 busy 11ms", 0},
	{"TestProcDeathReleasesCPU", progs(testParams(), nil, []op{use(2*ms, CPUUser)}, []op{use(ms, CPUUser)}), "3ms p0 line 1, 4ms h: dispatch p1", 0},
	{"TestDeterministicScheduling", progs(testParams(), nil, copies(3, spin(500*us, 100))...), "ctx 18 busy 168ms", 0},
	{"TestTraceHookReceivesEvents", progs(testParams(), nil, []op{use(ms, CPUUser)}), "1ms h: dispatch p0", 0},
	// The paper's starvation: a server woken 2 ms into a spinner's quantum
	// waits for its end.
	{"TestSpinnerDelaysWokenProcessUntilQuantumEnd", progs(testParams(), []waker{{at: 4 * ms}}, []op{sleepOn(0), use(ms, CPUSys)}, []op{spin(50*us, 800)}),
		"4ms wake 0: 1 asleep, 12ms h: quantum expire p1 (runq 1), 13ms p0 line 1", 0},
	{"TestWakeupWithIdleCPUDispatchesQuickly", progs(testParams(), []waker{{at: 20 * ms}}, []op{sleepOn(0)}), "21ms p0 line 1", 0},
	// Wakes do not queue: the producer gives way after each.
	{"TestSleepOnWakeupRendezvous", progs(testParams(), nil, repeat(3, sleepOn(0)), repeat(3, use(2*ms, CPUUser), wake(0), sleepFor(10*ms))),
		"5ms p0 line 1, 18ms p0 line 2, 31ms p0 line 3", 0},
	{"TestWakeupNoSleepersIsNoop", progs(testParams(), []waker{{}, {q: 2}}), "ctx 0 busy 0s", 0},
	{"TestSleepForDuration", progs(testParams(), nil, []op{sleepFor(25 * ms)}), "27ms p0 line 1", 0},
	// On the keyed queues of SleepOn and Wakeup; a key nobody slept on too.
	{"TestSleepersCountAndMultipleWake", world{pr: testParams(), progs: copies(4, sleepOn(0)), subjects: 4, keyed: true,
		wakers: []waker{{at: 5 * ms, q: 1}, {at: 5 * ms}}}, "5ms wake 0: 4 asleep, 9ms p3 line 1", 0},
	{"TestInterruptDelaysHandler", progs(testParams(), []waker{{at: 10 * ms, intr: true}}, []op{sleepOn(0)}), "11ms wake 0: 1 asleep", 0},
	// A boost caps a woken server's wait at about WakeBoostDelay.
	{"TestWakeBoostPreemptsSpinner", progs(boostParams(15*ms), []waker{{at: 30 * ms}}, []op{sleepOn(0)}, []op{spin(50*us, 4000)}),
		"45ms h: boost preempts p1 for p0, 46ms p0 line 1", 0},
	// A client woken at 5 ms runs and sleeps again before its boost, due at
	// 20 ms, fires; woken again at 10 ms, it waits behind a server woken at
	// 8 ms. The first boost is stale and must not bounce the server off
	// the CPU (it did once); the second, at 25 ms, does.
	{"TestStaleBoostDoesNotPreemptForDispatchedProc", world{pr: boostParams(15 * ms), subjects: 2,
		progs:  [][]op{{sleepOn(0), {d: 50 * us, cpu: CPUSys, q: 2, reps: 600}}, {sleepOn(1), use(ms, CPUUser), sleepOn(1), spin(50*us, 2000)}},
		wakers: []waker{{at: 5 * ms, q: 1}, {at: 8 * ms}, {at: 10 * ms, q: 1}}},
		"25ms h: boost preempts p0 for p1, 26ms p1 line 3, 111ms p0 line 2", 0},
	// Two sleepers woken together onto an idle CPU: the first's dispatch
	// and the second's boost fall due at one instant, and the dispatch
	// comes first, so the boost finds the first on the CPU and preempts it.
	{"TestBoostFollowsItsDispatch", progs(boostParams(ms), []waker{{at: 5 * ms}}, copies(2, sleepOn(0), spin(50*us, 20))...),
		"6ms h: dispatch p0, 6ms h: boost preempts p0 for p1, 7ms h: dispatch p1", 0},
	// Two processes that never sleep alternate whole quanta, boost or none.
	{"TestBoostDoesNotAffectPureSpinners", progs(boostParams(0), nil, copies(2, spin(50*us, 4000))...), "ctx 6 busy 406ms", 0},
	{"TestBoostDoesNotAffectPureSpinners", progs(boostParams(15*ms), nil, copies(2, spin(50*us, 4000))...), "ctx 6 busy 406ms", 0},
	// Timed sleeps and boosts; the runner checks that the processes' CPU
	// sums to the busy time.
	{"TestAccountingConservation", progs(boostParams(10*ms), nil, work(1), work(2), work(3)), "ctx 31 busy 136ms", 0},
	// A poll whose looks run in the kernel's lane still hands the CPU to a
	// peer that waits in the run queue with no event of its own, at the
	// quantum expiry where a filed slice end would.
	{"TestContinuedSliceRotates", progs(testParams(), nil, []op{spin(2500*us, 30)}, repeat(4, use(5*ms, CPUUser))),
		"11ms h: quantum expire p0 (runq 1), 12ms h: dispatch p1, 12ms p1 line 0", 26},
	// Six processes sleep on the three queues in turn, woken by a seeded
	// schedule of hits, misses and repeats, while the runner checks the
	// queues after every log line.
	{"TestSleeperOnOneQueue", sleepers(), "393.5ms p5 line 80", 0},
}

// work is 50 rounds of computing, with a timed sleep every seventh.
func work(i int) (ops []op) {
	for j := 0; j < 50; j++ {
		if ops = append(ops, use(time.Duration(i)*300*us, CPUUser)); j%7 == 0 {
			ops = append(ops, sleepFor(2*ms))
		}
		ops = append(ops, use(100*us, CPUSys))
	}
	return ops
}

func sleepers() world {
	w := progs(testParams(), nil)
	for i := 0; i < 6; i++ {
		w.progs = append(w.progs, nil)
		for r := 0; r < 40; r++ {
			w.progs[i] = append(w.progs[i], sleepOn((i+r)%queues), use(time.Duration(i)*100*us, CPUUser))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for at := time.Duration(0); len(w.wakers) < 500; {
		at += time.Duration(1+rng.Intn(3)) * ms
		w.wakers = append(w.wakers, waker{at: at, q: rng.Intn(queues)})
	}
	w.subjects = 6
	return w
}

// playFixed plays the rows of the calling test.
func playFixed(t *testing.T) {
	n := 0
	for _, row := range fixedWorlds {
		if row.test != t.Name() {
			continue
		}
		n++
		plays, err := holds(&row.w, &cover{})
		if err != nil {
			t.Fatalf("row %d: %v", n, err)
		}
		log := plays[0].log
		for _, want := range strings.Split(row.want, ", ") {
			i := slices.IndexFunc(log, func(e entry) bool { return e.String() == want })
			if i < 0 {
				t.Fatalf("row %d never logs %q after what it wants before; its log: %v", n, want, plays[0].log)
			}
			log = log[i+1:]
		}
		if c := plays[len(plays)-1].m.(*real).k.Counters().Skipped; c < uint64(row.skipped) {
			t.Errorf("row %d left %d looks to the lane, want at least %d", n, c, row.skipped)
		}
	}
	if n == 0 {
		t.Fatal("no fixed world names this test")
	}
}

func TestSingleProcUsesCPUUninterrupted(t *testing.T)           { playFixed(t) }
func TestUserSysAccounting(t *testing.T)                        { playFixed(t) }
func TestRoundRobinPreemption(t *testing.T)                     { playFixed(t) }
func TestBusyTimeAccounting(t *testing.T)                       { playFixed(t) }
func TestProcDeathReleasesCPU(t *testing.T)                     { playFixed(t) }
func TestDeterministicScheduling(t *testing.T)                  { playFixed(t) }
func TestTraceHookReceivesEvents(t *testing.T)                  { playFixed(t) }
func TestSpinnerDelaysWokenProcessUntilQuantumEnd(t *testing.T) { playFixed(t) }
func TestWakeupWithIdleCPUDispatchesQuickly(t *testing.T)       { playFixed(t) }
func TestSleepOnWakeupRendezvous(t *testing.T)                  { playFixed(t) }
func TestWakeupNoSleepersIsNoop(t *testing.T)                   { playFixed(t) }
func TestSleepForDuration(t *testing.T)                         { playFixed(t) }
func TestSleepersCountAndMultipleWake(t *testing.T)             { playFixed(t) }
func TestInterruptDelaysHandler(t *testing.T)                   { playFixed(t) }
func TestWakeBoostPreemptsSpinner(t *testing.T)                 { playFixed(t) }
func TestStaleBoostDoesNotPreemptForDispatchedProc(t *testing.T) {
	playFixed(t)
}
func TestBoostFollowsItsDispatch(t *testing.T)        { playFixed(t) }
func TestBoostDoesNotAffectPureSpinners(t *testing.T) { playFixed(t) }
func TestAccountingConservation(t *testing.T)         { playFixed(t) }
func TestContinuedSliceRotates(t *testing.T)          { playFixed(t) }
func TestSleeperOnOneQueue(t *testing.T)              { playFixed(t) }

func TestTwoHostsAreIndependent(t *testing.T) {
	k := sim.New(1)
	defer k.Shutdown()
	var done [2]time.Duration
	for i := range done {
		i := i
		New(k, i, fmt.Sprint("h", i), testParams()).Spawn("p", func(p *Proc) { p.UseUser(20 * ms); done[i] = p.Now() })
	}
	k.Run()
	if done != [2]time.Duration{21 * ms, 21 * ms} {
		t.Errorf("done at %v; hosts should not contend", done)
	}
}

// TestUseWhileEdges pins what the spec leaves out around a poll: a Use of
// nothing files no event; UseWhile refuses a poll that costs nothing;
// alone on the kernel, a poll of 25 looks over two quantum ends is one
// lane run whose last look alone is a kernel event, and a Use's slices are
// one event each, with no coroutine switch; a limit below 1 is 1; and
// again, which runs where there is no coroutine to block, may not block.
func TestUseWhileEdges(t *testing.T) {
	k := sim.New(1)
	defer k.Shutdown()
	New(k, 0, "a", testParams()).Spawn("poller", func(p *Proc) {
		before := k.Counters()
		p.Use(0, CPUUser)
		p.Use(-time.Second, CPUSys)
		var losses uint64
		p.UseWhile(ms, CPUUser, func() bool { return true }, 25, &losses)
		p.UseSys(35 * ms) // its slices end at 5, 15, 25 and 35 ms of it
		c := k.Counters()
		if c.Resumes != before.Resumes || c.Pops-before.Pops != 5 || c.Skipped-before.Skipped != 24 || k.PendingEvents() != 0 || losses != 25 || p.Now() != 61*ms {
			t.Errorf("alone, 25 looks and a Use cost %d coroutine resumes, %d kernel events and %d skipped looks, lost %d, left %d pending and ended at %v",
				c.Resumes-before.Resumes, c.Pops-before.Pops, c.Skipped-before.Skipped, losses, k.PendingEvents(), p.Now())
		}
		if p.UseWhile(ms, CPUUser, func() bool { return true }, 0, &losses); losses != 26 {
			t.Errorf("a limit of 0 lost %d looks, want 1", losses-25)
		}
		mustPanic(t, "UseWhile(0)", func() { p.UseWhile(0, CPUUser, nil, 1, &losses) })
		// Alone in the kernel, the poller dispatches its own events, so the
		// predicate's panic unwinds through this very stack.
		mustPanic(t, "Use from again", func() { p.UseWhile(ms, CPUUser, func() bool { p.UseSys(ms); return false }, 1, &losses) })
	})
	k.Run()
}

func mustPanic(t *testing.T, name string, run func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	run()
}

// A Want is decoded by its zero fields, so the two that would read as
// exit must fail where they are built, not end the process silently.
func TestWantRejectsZeroKindAndNilKey(t *testing.T) {
	mustPanic(t, "UseCPU(d, 0)", func() { UseCPU(ms, 0) })
	mustPanic(t, "WaitOn(nil)", func() { WaitOn(nil) })
}

// hostSpawnAllocCeiling is what one Host.Spawn may allocate: the Proc,
// its resume closure (the dispatch closure is the host's now), the
// "host/name" string, the body closure and sim.Kernel.Spawn's 13 (see its
// own test). The per-process event names and the SleepFor timer closure
// used to be built here too.
const hostSpawnAllocCeiling = 17

func TestHostSpawnAllocations(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	body := func(p *Proc) {}
	got := testing.AllocsPerRun(200, func() { h.Spawn("p", body) })
	k.Shutdown()
	if got > hostSpawnAllocCeiling {
		t.Errorf("Host.Spawn allocates %v objects, ceiling %d", got, hostSpawnAllocCeiling)
	}
}
