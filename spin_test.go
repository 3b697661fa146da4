package mether

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mether/internal/core"
)

// loadLoop32 is what Spin32 is defined as, kept here as the reference:
// the loop every poller was written as before the scheduler ran polls.
func loadLoop32(env *Env, m *Mapping, a Addr, every time.Duration, again func(uint32) bool) (uint32, error) {
	for {
		env.Compute(every)
		v, err := m.Load32(a)
		if err != nil || !again(v) {
			return v, err
		}
	}
}

// spinWorld is one world of TestSpin32MatchesLoadLoop: what to build and
// what its two clients do, each handed the spin under test.
type spinWorld struct {
	name    string
	loss    float64
	prepare func(w *World)
	// clients run on hosts 0 and 1; seen logs what a predicate was shown.
	clients [2]func(env *Env, capRW Capability, spin spinFunc, seen func(uint32)) error
}

type spinFunc func(env *Env, m *Mapping, a Addr, every time.Duration, again func(uint32) bool) (uint32, error)

const spinEvery = 50 * time.Microsecond

// spinWriter owns the page through the RW view and publishes n values,
// one per period, each with a purge broadcast.
func spinWriter(n uint32, period time.Duration) func(*Env, Capability, spinFunc, func(uint32)) error {
	return func(env *Env, capRW Capability, _ spinFunc, _ func(uint32)) error {
		m, err := env.Attach(capRW, RW)
		if err != nil {
			return err
		}
		a := m.Addr(0, 0).Short()
		for v := uint32(1); v <= n; v++ {
			env.SleepFor(period)
			if err := m.Store32(a, v); err != nil {
				return err
			}
			if err := m.Purge(a); err != nil {
				return err
			}
		}
		return nil
	}
}

// spinReader spins on the read-only short view until it has seen n,
// purging its copy every purgeEvery stale looks (0: never) — so polls of
// every length from one up end in a purge, a fault and a refetch.
func spinReader(n uint32, purgeEvery int) func(*Env, Capability, spinFunc, func(uint32)) error {
	return func(env *Env, capRW Capability, spin spinFunc, seen func(uint32)) error {
		m, err := env.Attach(capRW.ReadOnly(), RO)
		if err != nil {
			return err
		}
		a := m.Addr(0, 0).Short()
		last, stale := uint32(0), 0
		again := func(v uint32) bool {
			seen(v)
			if v >= n {
				return false
			}
			if v != last {
				last, stale = v, 0
			}
			stale++
			return purgeEvery == 0 || stale < purgeEvery
		}
		for {
			v, err := spin(env, m, a, spinEvery, again)
			if err != nil || v >= n {
				return err
			}
			stale = 0
			if err := m.Purge(a); err != nil {
				return err
			}
		}
	}
}

// spinStealer is one of two processes incrementing a word through the
// consistent view: each spins until the value is its to increment, and
// each increment steals the page from under the other's spin.
func spinStealer(id, target uint32) func(*Env, Capability, spinFunc, func(uint32)) error {
	return func(env *Env, capRW Capability, spin spinFunc, seen func(uint32)) error {
		m, err := env.Attach(capRW, RW)
		if err != nil {
			return err
		}
		a := m.Addr(0, 0).Short()
		again := func(v uint32) bool {
			seen(v)
			return v < target && v%2 != id
		}
		for {
			v, err := spin(env, m, a, spinEvery, again)
			if err != nil || v >= target {
				return err
			}
			env.Compute(spinEvery)
			if err := m.Store32(a, v+1); err != nil {
				return err
			}
		}
	}
}

// run builds the world, runs both clients with the given spin and
// returns everything observable.
func (sw spinWorld) run(t *testing.T, spin spinFunc) (obs []string) {
	cfg := Config{Hosts: 2, Pages: 16, Seed: 11}.withDefaults()
	cfg.HostParams.Quantum = 3 * time.Millisecond
	cfg.HostParams.CtxSwitch = 200 * time.Microsecond
	cfg.HostParams.TrapCost = 100 * time.Microsecond
	cfg.HostParams.SyscallCost = 50 * time.Microsecond
	cfg.Core.RetryTimeout = 20 * time.Millisecond
	cfg.Core.PacketCost = 200 * time.Microsecond
	cfg.Core.ByteCost = 100 * time.Nanosecond
	cfg.Core.MinResidency = time.Millisecond
	cfg.Medium.Ethernet.LossRate = sw.loss
	w := NewWorld(cfg)
	defer w.Shutdown()
	seg, err := w.CreateSegment("spun", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sw.prepare != nil {
		sw.prepare(w)
	}
	var envs [2]*Env
	for i, client := range sw.clients {
		i, client := i, client
		w.Spawn(i, "client", func(env *Env) {
			envs[i] = env
			err := client(env, seg.CapRW(), spin, func(v uint32) {
				obs = append(obs, fmt.Sprintf("%v host %d sees %d", env.Now(), i, v))
			})
			obs = append(obs, fmt.Sprintf("%v host %d done: %v", env.Now(), i, err))
		})
	}
	w.RunUntil(5 * time.Second)
	h := w.Harvest(w.Now())
	h.Resumes = 0 // the one thing meant to differ
	obs = append(obs, fmt.Sprintf("harvest %+v", h), fmt.Sprintf("events %d", w.EventsDispatched()))
	for i, env := range envs {
		m := w.Driver(i).Metrics()
		obs = append(obs, fmt.Sprintf("host %d user %v sys %v faults %d+%d purges %d+%d",
			i, env.Proc().User(), env.Proc().Sys(), m.DemandFaults, m.DataFaults, m.PurgesRO, m.PurgesRW))
	}
	return obs
}

// TestSpin32MatchesLoadLoop: Spin32 is the Compute/Load32 loop, event
// for event, wherever the polled page goes mid-spin — purged by the
// spinner, refreshed and stolen by a peer, wiped by a crash of the
// spinner's own host, lost on the wire — and when it was never mapped.
// Every value the predicate is shown, at its instant, World.Harvest,
// EventsDispatched and both clients' CPU must agree; only the coroutine
// resumes may (and must) differ.
func TestSpin32MatchesLoadLoop(t *testing.T) {
	crash := func(w *World) {
		// The reader's host loses its directory in mid-spin and rejoins.
		w.Kernel().After(30*time.Millisecond+7*time.Microsecond-w.Kernel().Now(), "crash", func() { w.CrashHost(1) })
		w.Kernel().After(55*time.Millisecond-w.Kernel().Now(), "recover", func() { w.RecoverHost(1) })
	}
	worlds := []spinWorld{
		{name: "purged mid-spin", clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
			spinWriter(12, 7*time.Millisecond), spinReader(12, 3)}},
		{name: "purged every look", clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
			spinWriter(6, 7*time.Millisecond), spinReader(6, 1)}},
		{name: "stolen mid-spin", clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
			spinStealer(0, 40), spinStealer(1, 40)}},
		{name: "crashed and recovered", prepare: crash, clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
			spinWriter(12, 7*time.Millisecond), spinReader(12, 0)}},
		{name: "2% loss", loss: 0.02, clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
			spinWriter(40, 3*time.Millisecond), spinReader(40, 2)}},
		{name: "2% loss, stolen", loss: 0.02, clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
			spinStealer(0, 60), spinStealer(1, 60)}},
	}
	for _, sw := range worlds {
		t.Run(sw.name, func(t *testing.T) {
			want := sw.run(t, loadLoop32)
			got := sw.run(t, func(_ *Env, m *Mapping, a Addr, every time.Duration, again func(uint32) bool) (uint32, error) {
				return m.Spin32(a, every, again)
			})
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("Spin32 diverges from the loop at line %d of %d/%d:\nloop:   %v\nSpin32: %v", i, len(want), len(got), want[i:min(i+1, len(want))], got[i:min(i+1, len(got))])
			}
			if len(want) < 20 {
				t.Errorf("only %d observations: the world did not spin", len(want))
			}
		})
	}
}

// TestSpinWorldFilesEventsOnce: in the world Figures 4-9 are made of,
// two hosts spinning on a counter page with two or three timers pending,
// the wheel's cursor jumps to each event where it was first filed, and
// under one event in two is filed a second time (measured: one in
// eleven; a cursor walked from bucket start to bucket start refiled 1.6
// times per event).
func TestSpinWorldFilesEventsOnce(t *testing.T) {
	var w *World
	spinWorld{prepare: func(built *World) { w = built }, clients: [2]func(*Env, Capability, spinFunc, func(uint32)) error{
		spinStealer(0, 400), spinStealer(1, 400)}}.run(t, func(_ *Env, m *Mapping, a Addr, every time.Duration, again func(uint32) bool) (uint32, error) {
		return m.Spin32(a, every, again)
	})
	if events, refiles := w.k.Dispatched(), w.k.Counters().Refiles; events < 10000 || refiles >= events/2 {
		t.Errorf("%d refiles in %d events, want under one in two of at least 10000", refiles, events)
	} else {
		t.Logf("%d refiles in %d events", refiles, events)
	}
}

// TestSpin32Errors: an access the loop's first Load32 would refuse is
// refused by Spin32 at the same instant — after the first every has been
// charged, not before — and a poll that costs nothing is refused
// outright instead of spinning at one instant forever.
func TestSpin32Errors(t *testing.T) {
	for _, spin := range []struct {
		name string
		fn   spinFunc
	}{
		{"loop", loadLoop32},
		{"Spin32", func(_ *Env, m *Mapping, a Addr, every time.Duration, again func(uint32) bool) (uint32, error) {
			return m.Spin32(a, every, again)
		}},
	} {
		w := fastWorld(t, 2)
		seg, err := w.CreateSegment("windowed", 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got error
		var at, user time.Duration
		asked := 0
		w.Spawn(1, "reader", func(env *Env) {
			m, err := env.AttachPages(seg.CapRO(), RO, 0)
			if err != nil {
				got = err
				return
			}
			start, user0 := env.Now(), env.Proc().User()
			_, got = spin.fn(env, m, m.Addr(1, 0).Short(), spinEvery, func(uint32) bool { asked++; return true })
			at, user = env.Now()-start, env.Proc().User()-user0
		})
		w.Run()
		if !errors.Is(got, core.ErrNotMapped) || at != spinEvery || user != spinEvery || asked != 0 {
			t.Errorf("%s on an unmapped page: err %v after %v (%v user, predicate asked %d times), want ErrNotMapped after one look of %v",
				spin.name, got, at, user, asked, spinEvery)
		}
	}

	w := fastWorld(t, 2)
	seg, err := w.CreateSegment("free", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got error
	w.Spawn(0, "owner", func(env *Env) {
		m, _ := env.Attach(seg.CapRW(), RW)
		_, got = m.Spin32(m.Addr(0, 0).Short(), 0, func(uint32) bool { return true })
	})
	w.Run()
	if got == nil {
		t.Error("Spin32 with every = 0 returned no error")
	}
}

// TestSpin32DoesNotAllocate: a steady-state spin — polls of a few looks
// each, back to back — allocates nothing: the poll's state is the Env's,
// its callbacks are built once, and the caller built its predicate
// outside the loop.
func TestSpin32DoesNotAllocate(t *testing.T) {
	w := fastWorld(t, 2)
	seg, err := w.CreateSegment("hot", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	w.Spawn(0, "owner", func(env *Env) {
		m, err := env.Attach(seg.CapRW(), RW)
		if err != nil {
			t.Error(err)
			return
		}
		a := m.Addr(0, 0).Short()
		looks := 0
		again := func(uint32) bool { looks++; return looks%5 != 0 }
		for {
			if _, err := m.Spin32(a, spinEvery, again); err != nil {
				t.Error(err)
				return
			}
			polls++
		}
	})
	step := func() { w.RunUntil(w.Now() + 10*time.Millisecond) }
	step()
	before := polls
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("10 ms of spinning allocates %v objects", allocs)
	}
	if polls-before < 20*30 {
		t.Errorf("%d polls in 21 steps: the world did not spin", polls-before)
	}
}

// TestIdleNamesBlockedHostCoroutines: Kernel.Idle is the deadlock
// diagnostic, and host coroutines wait in sim.Proc.Await, not Park: a
// reader blocked on a data-driven view that nothing will ever transit
// must still be named at quiesce, and the writer that finished must not.
func TestIdleNamesBlockedHostCoroutines(t *testing.T) {
	w := fastWorld(t, 2)
	seg, err := w.CreateSegment("quiet", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	returned := false
	w.Spawn(0, "writer", func(env *Env) {
		m, _ := env.Attach(seg.CapRW(), RW)
		_ = m.Store32(m.Addr(0, 0).Short(), 1) // no purge: nothing transits
	})
	w.Spawn(1, "reader", func(env *Env) {
		m, _ := env.Attach(seg.CapRO(), RO)
		a := m.Addr(0, 0).Short()
		_ = m.Purge(a)
		_, _ = m.Load32(a.DataDriven())
		returned = true
	})
	w.Run()
	if idle := fmt.Sprint(w.Kernel().Idle()); returned || idle != "[host1/reader]" {
		t.Errorf("reader returned %v, Idle() = %s; want the blocked reader and nobody else", returned, idle)
	}
}
