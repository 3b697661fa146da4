package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New(1)
	var got []int
	k.At(30*time.Millisecond, "c", func() { got = append(got, 3) })
	k.At(10*time.Millisecond, "a", func() { got = append(got, 1) })
	k.At(20*time.Millisecond, "b", func() { got = append(got, 2) })
	end := k.Run()
	if end != 30*time.Millisecond {
		t.Errorf("end time = %v, want 30ms", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsRunInInsertionOrder(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5*time.Millisecond, "e", func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := New(1)
	var at time.Duration
	k.At(time.Second, "outer", func() {
		k.After(250*time.Millisecond, "inner", func() { at = k.Now() })
	})
	k.Run()
	if at != 1250*time.Millisecond {
		t.Errorf("inner fired at %v, want 1.25s", at)
	}
}

func TestCancelPreventsRun(t *testing.T) {
	k := New(1)
	ran := false
	ev := k.At(time.Millisecond, "x", func() { ran = true })
	ev.Cancel()
	k.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	k := New(1)
	var at time.Duration
	k.At(time.Second, "outer", func() {
		k.At(0, "past", func() { at = k.Now() })
	})
	k.Run()
	if at != time.Second {
		t.Errorf("past event fired at %v, want 1s", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := New(1)
	ran := false
	k.At(2*time.Second, "late", func() { ran = true })
	end := k.RunUntil(time.Second)
	if ran {
		t.Error("event after deadline ran")
	}
	if end != time.Second {
		t.Errorf("clock = %v, want 1s", end)
	}
	k.Run()
	if !ran {
		t.Error("event did not run after resuming")
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(time.Duration(i)*time.Millisecond, "e", func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Errorf("ran %d events, want 3", count)
	}
	if !k.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := New(1)
	var times []time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Millisecond)
			times = append(times, p.Now())
		}
	})
	k.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("got %d wakeups, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("wake %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestParkAndWake(t *testing.T) {
	k := New(1)
	var wokeAt time.Duration
	p := k.Spawn("parker", func(p *Proc) {
		p.Park("test")
		wokeAt = p.Now()
	})
	k.At(50*time.Millisecond, "waker", func() { p.Wake() })
	k.Run()
	if wokeAt != 50*time.Millisecond {
		t.Errorf("woke at %v, want 50ms", wokeAt)
	}
	if !p.Dead() {
		t.Error("proc should be dead after fn returns")
	}
}

func TestWakeBeforeParkIsRemembered(t *testing.T) {
	k := New(1)
	done := false
	var p *Proc
	p = k.Spawn("p", func(pp *Proc) {
		pp.Sleep(20 * time.Millisecond) // wake arrives during this sleep
		pp.Park("should not block")
		done = true
	})
	k.At(5*time.Millisecond, "early wake", func() { p.Wake() })
	k.Run()
	if !done {
		t.Error("pending wake was lost; Park blocked forever")
	}
}

func TestIdleReportsParkedProcs(t *testing.T) {
	k := New(1)
	k.Spawn("stuck", func(p *Proc) { p.Park("waiting for godot") })
	k.Run()
	idle := k.Idle()
	if len(idle) != 1 || idle[0] != "stuck" {
		t.Errorf("Idle() = %v, want [stuck]", idle)
	}
	k.Shutdown()
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := New(7)
		var trace []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				p.Sleep(10 * time.Millisecond)
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				p.Sleep(15 * time.Millisecond)
			}
		})
		k.Run()
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("trace length differs across runs: %v vs %v", first, again)
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run not deterministic: %v vs %v", first, again)
			}
		}
	}
}

func TestShutdownUnblocksParkedProcs(t *testing.T) {
	k := New(1)
	for i := 0; i < 5; i++ {
		k.Spawn("p", func(p *Proc) {
			for {
				p.Park("forever")
			}
		})
	}
	k.Run()
	k.Shutdown()
	for _, name := range k.Idle() {
		t.Errorf("proc %s still parked after Shutdown", name)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestSpuriousWakeToleratedByConditionLoop(t *testing.T) {
	k := New(1)
	ready := false
	var woke time.Duration
	p := k.Spawn("waiter", func(p *Proc) {
		for !ready {
			p.Park("cond")
		}
		woke = p.Now()
	})
	// A wake with the condition still false, then the real one.
	k.At(10*time.Millisecond, "spurious", func() { p.Wake() })
	k.At(20*time.Millisecond, "real", func() { ready = true; p.Wake() })
	k.Run()
	if woke != 20*time.Millisecond {
		t.Errorf("condition loop exited at %v, want 20ms", woke)
	}
}

// TestEventOrderProperty checks with random timestamp sets that the
// kernel always dispatches in nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		k := New(1)
		var fired []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Microsecond
			k.At(d, "e", func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNestedSpawn(t *testing.T) {
	k := New(1)
	var order []string
	k.Spawn("parent", func(p *Proc) {
		order = append(order, "parent-start")
		k.Spawn("child", func(c *Proc) {
			order = append(order, "child")
		})
		p.Sleep(time.Millisecond)
		order = append(order, "parent-end")
	})
	k.Run()
	want := []string{"parent-start", "child", "parent-end"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("order = %v, want %v", order, want)
	}
}
