package host

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mether/internal/sim"
)

func testParams() Params {
	return Params{
		Quantum:         10 * time.Millisecond,
		CtxSwitch:       time.Millisecond,
		DispatchLatency: 0,
		TrapCost:        time.Millisecond,
		SyscallCost:     time.Millisecond,
		InterruptCost:   time.Millisecond,
	}
}

func TestSingleProcUsesCPUUninterrupted(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var done time.Duration
	h.Spawn("p", func(p *Proc) {
		p.UseUser(35 * time.Millisecond)
		done = p.Now()
	})
	k.Run()
	// One initial dispatch (1ms), then 35ms of work with no competitors:
	// no further context switches even across quantum boundaries.
	if done != 36*time.Millisecond {
		t.Errorf("finished at %v, want 36ms", done)
	}
	if h.ContextSwitches() != 1 {
		t.Errorf("context switches = %d, want 1", h.ContextSwitches())
	}
}

func TestUserSysAccounting(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var pr *Proc
	pr = h.Spawn("p", func(p *Proc) {
		p.UseUser(5 * time.Millisecond)
		p.UseSys(3 * time.Millisecond)
	})
	k.Run()
	// 1ms dispatch ctx cost is charged as sys.
	if pr.User() != 5*time.Millisecond {
		t.Errorf("user = %v, want 5ms", pr.User())
	}
	if pr.Sys() != 4*time.Millisecond {
		t.Errorf("sys = %v, want 4ms (3ms work + 1ms switch)", pr.Sys())
	}
}

func TestRoundRobinPreemption(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var order []string
	mark := func(s string) { order = append(order, s) }
	h.Spawn("a", func(p *Proc) {
		p.UseUser(15 * time.Millisecond) // spans one quantum boundary
		mark("a")
	})
	h.Spawn("b", func(p *Proc) {
		p.UseUser(15 * time.Millisecond)
		mark("b")
	})
	k.Run()
	// a runs 10ms, preempted; b runs 10ms, preempted; a finishes its 5ms,
	// then b. So completion order is a then b.
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("completion order = %v, want [a b]", order)
	}
	// Dispatches: a, b, a, b = 4.
	if h.ContextSwitches() != 4 {
		t.Errorf("context switches = %d, want 4", h.ContextSwitches())
	}
}

func TestSpinnerDelaysWokenProcessUntilQuantumEnd(t *testing.T) {
	// The paper's starvation effect: a blocked process woken mid-quantum
	// must wait for the spinner's quantum to expire.
	k := sim.New(1)
	p := testParams()
	h := New(k, 0, "a", p)
	var served time.Duration
	server := h.Spawn("server", func(p *Proc) {
		p.SleepOn("work")
		served = p.Now()
		p.UseSys(time.Millisecond)
	})
	_ = server
	h.Spawn("spinner", func(p *Proc) {
		for p.Now() < 40*time.Millisecond {
			p.UseUser(50 * time.Microsecond)
		}
	})
	// Wake the server 2ms into the spinner's quantum.
	k.After(4*time.Millisecond, "wake", func() { h.Wakeup("work") })
	k.Run()
	// Server was dispatched only at the spinner's quantum boundary.
	// Spinner dispatched at 1ms (after server's initial dispatch+block at
	// ~0), quantum ends ~11ms, plus 1ms switch.
	if served < 10*time.Millisecond {
		t.Errorf("server ran at %v; expected to be starved past 10ms", served)
	}
	if served > 15*time.Millisecond {
		t.Errorf("server ran at %v; expected dispatch near quantum end", served)
	}
}

func TestWakeupWithIdleCPUDispatchesQuickly(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var served time.Duration
	h.Spawn("server", func(p *Proc) {
		p.SleepOn("work")
		served = p.Now()
	})
	k.After(20*time.Millisecond, "wake", func() { h.Wakeup("work") })
	k.Run()
	// Idle CPU: dispatch after just the context-switch cost.
	if served != 21*time.Millisecond {
		t.Errorf("served at %v, want 21ms", served)
	}
}

func TestSleepOnWakeupRendezvous(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var got []int
	h.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.SleepOn("data")
			got = append(got, i)
		}
	})
	h.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.UseUser(2 * time.Millisecond)
			h.Wakeup("data")
			// Yield so the consumer can run and re-sleep; wakeups do not
			// queue (SunOS sleep/wakeup semantics).
			p.SleepFor(10 * time.Millisecond)
		}
	})
	k.Run()
	if len(got) != 3 {
		t.Errorf("consumer woke %d times, want 3", len(got))
	}
}

func TestWakeupNoSleepersIsNoop(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	h.Wakeup("nothing")
	k.Run()
	if h.ContextSwitches() != 0 {
		t.Error("wakeup with no sleepers caused a dispatch")
	}
}

func TestSleepForDuration(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var woke time.Duration
	h.Spawn("p", func(p *Proc) {
		p.SleepFor(25 * time.Millisecond)
		woke = p.Now()
	})
	k.Run()
	// 1ms initial dispatch + 25ms sleep + 1ms redispatch.
	if woke != 27*time.Millisecond {
		t.Errorf("woke at %v, want 27ms", woke)
	}
}

func TestSleepersCountAndMultipleWake(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	woken := 0
	for i := 0; i < 4; i++ {
		h.Spawn("w", func(p *Proc) {
			p.SleepOn("gate")
			woken++
		})
	}
	k.After(5*time.Millisecond, "check", func() {
		if n := h.keyed["gate"].len(); n != 4 {
			t.Errorf("%d asleep on the key, want 4", n)
		}
		h.Wakeup("gate")
	})
	k.Run()
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
	if h.keyed["gate"].len() != 0 {
		t.Error("sleepers not cleared after wakeup")
	}
}

func TestInterruptDelaysHandler(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var at time.Duration
	k.After(10*time.Millisecond, "nic", func() {
		h.Interrupt(func() { at = k.Now() })
	})
	k.Run()
	if at != 11*time.Millisecond {
		t.Errorf("interrupt handler at %v, want 11ms", at)
	}
}

func TestTwoHostsAreIndependent(t *testing.T) {
	k := sim.New(1)
	h0 := New(k, 0, "a", testParams())
	h1 := New(k, 1, "b", testParams())
	var doneA, doneB time.Duration
	h0.Spawn("pa", func(p *Proc) { p.UseUser(20 * time.Millisecond); doneA = p.Now() })
	h1.Spawn("pb", func(p *Proc) { p.UseUser(20 * time.Millisecond); doneB = p.Now() })
	k.Run()
	if doneA != 21*time.Millisecond || doneB != 21*time.Millisecond {
		t.Errorf("doneA=%v doneB=%v; hosts should not contend", doneA, doneB)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	h.Spawn("p", func(p *Proc) { p.UseUser(10 * time.Millisecond) })
	k.Run()
	want := 11 * time.Millisecond // 1ms switch + 10ms work
	if h.BusyTime() != want {
		t.Errorf("busy = %v, want %v", h.BusyTime(), want)
	}
}

func TestDeterministicScheduling(t *testing.T) {
	run := func() uint64 {
		k := sim.New(3)
		h := New(k, 0, "a", testParams())
		for i := 0; i < 3; i++ {
			h.Spawn("w", func(p *Proc) {
				for j := 0; j < 100; j++ {
					p.UseUser(500 * time.Microsecond)
				}
			})
		}
		k.Run()
		return h.ContextSwitches()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("context switches differ across identical runs: %d vs %d", a, b)
	}
}

func TestProcDeathReleasesCPU(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var second time.Duration
	h.Spawn("short", func(p *Proc) { p.UseUser(2 * time.Millisecond) })
	h.Spawn("next", func(p *Proc) { second = p.Now(); p.UseUser(time.Millisecond) })
	k.Run()
	// short: dispatch 1ms + 2ms work; next dispatched at 3ms + 1ms switch.
	if second != 4*time.Millisecond {
		t.Errorf("second proc ran at %v, want 4ms", second)
	}
}

// TestUseWhileEdges pins the rules around a poll: a Use of nothing is no
// scheduling point (no event, no rotation even with the quantum spent),
// UseWhile refuses a poll that costs nothing, a poll ends in the event
// where again says no and reports state as the written loop would, and
// again, which runs where there is no coroutine to block, may not block.
func TestUseWhileEdges(t *testing.T) {
	mustPanic := func(name string, run func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		run()
	}
	k := sim.New(1)
	defer k.Shutdown()
	h := New(k, 0, "a", testParams())
	looks := 0
	h.Spawn("poller", func(p *Proc) {
		events := k.Dispatched()
		p.Use(0, CPUUser)
		p.Use(-time.Second, CPUSys)
		if k.Dispatched() != events || k.PendingEvents() != 0 {
			t.Errorf("Use(d <= 0) dispatched %d events and left %d pending", k.Dispatched()-events, k.PendingEvents())
		}
		mustPanic("UseWhile(0)", func() { p.UseWhile(0, CPUUser, func() bool { return false }) })
		start, before := p.Now(), k.Counters()
		p.UseWhile(time.Millisecond, CPUUser, func() bool {
			looks++
			return looks < 25 // across two quantum boundaries, alone on the CPU
		})
		if got := p.Now() - start; got != 25*time.Millisecond || p.User() != 25*time.Millisecond {
			t.Errorf("25 looks of 1ms took %v and were charged %v", got, p.User())
		}
		// Alone in the kernel, every slice end is the next event: the whole
		// poll runs inline, on this stack, without an event or a wait.
		if c := k.Counters(); c.Resumes != before.Resumes || c.Pops != before.Pops || c.Continued != before.Continued+25 {
			t.Errorf("a poll of 25 looks on an otherwise idle kernel cost %d coroutine resumes and %d kernel events, %d looks inline",
				c.Resumes-before.Resumes, c.Pops-before.Pops, c.Continued-before.Continued)
		}
		before = k.Counters()
		p.UseSys(35 * time.Millisecond)
		if c := k.Counters(); c.Pops != before.Pops || c.Continued == before.Continued || p.Sys() != 36*time.Millisecond {
			t.Errorf("a Use on an otherwise idle kernel cost %d kernel events and was charged %v", c.Pops-before.Pops, p.Sys())
		}
		// Alone in the kernel, the poller dispatches its own resume events,
		// so the predicate's panic unwinds through this very stack.
		mustPanic("Use from again", func() {
			p.UseWhile(time.Millisecond, CPUUser, func() bool {
				p.UseSys(time.Millisecond)
				return false
			})
		})
	})
	k.Run()
	if looks != 25 {
		t.Errorf("again was asked %d times, want 25", looks)
	}
}

// TestContinuedSliceRotates: a poll whose slice ends run inline still
// hands the CPU to a peer that waits in the run queue with no event of
// its own, at the quantum expiry where a filed slice end would — as the
// written Use loop does, look for look.
func TestContinuedSliceRotates(t *testing.T) {
	run := func(poll bool) (log []string, continued uint64) {
		k := sim.New(1)
		defer k.Shutdown()
		pr := testParams()
		h := New(k, 0, "a", pr)
		looks := 0
		again := func() bool {
			looks++
			log = append(log, fmt.Sprintf("%v look %d", k.Now(), looks))
			return looks < 30
		}
		h.Spawn("poller", func(p *Proc) {
			if poll {
				p.UseWhile(pr.Quantum/4, CPUUser, again)
				return
			}
			for {
				p.UseUser(pr.Quantum / 4)
				if !again() {
					return
				}
			}
		})
		h.Spawn("peer", func(p *Proc) {
			for i := 0; i < 4; i++ {
				log = append(log, fmt.Sprintf("%v peer", p.Now()))
				p.UseUser(pr.Quantum / 2)
			}
		})
		k.Run()
		return log, k.Counters().Continued
	}
	want, _ := run(false)
	got, continued := run(true)
	if !slices.Equal(got, want) {
		t.Errorf("the poll diverges from the Use loop:\n got %v\nwant %v", got, want)
	}
	// Dispatched at 1 ms, the poller's fourth slice ends its quantum at
	// 11 ms, and the peer is dispatched one switch later, before that
	// slice's look.
	if i := slices.Index(got, "12ms peer"); i != 3 || continued < 30 {
		t.Errorf("the peer first ran at line %d of %v, with %d slice ends inline; want line 3 and at least 30", i, got, continued)
	}
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
