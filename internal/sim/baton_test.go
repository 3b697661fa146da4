package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The goroutines of baton-passing dispatch: every one is reaped whatever
// state its process was left in, and a Resume costs a hand-off only
// across stacks. What runs, and when, is TestKernelMatchesSpec's.

// onRootStack reports whether the caller is running on the goroutine
// that called RunUntil, as opposed to a process goroutine dispatching.
func onRootStack() bool {
	buf := make([]byte, 8192)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*Kernel).RunUntil")
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
	k.After(5*time.Millisecond, "late spawn", func() {
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
			k.After(time.Millisecond, "boom", func() { panic(v) })
		}},
		{"callback on a parked process", func(k *Kernel, v any) {
			k.Spawn("holder", func(p *Proc) { p.Park("holds the baton") })
			k.After(time.Millisecond, "boom", func() {
				if onRootStack() {
					t.Error("callback ran on the root goroutine")
				}
				panic(v)
			})
		}},
		{"callback on an exited process", func(k *Kernel, v any) {
			k.Spawn("gone", func(p *Proc) {})
			k.After(time.Millisecond, "boom", func() {
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
			k.After(time.Millisecond, "boom", func() {
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
