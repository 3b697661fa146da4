package mether

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mether/internal/core"
	"mether/internal/sim"
)

// loadLoop32 is what Spin32 is defined as, kept here as the reference:
// the loop every poller was written as before the scheduler ran polls.
func loadLoop32(env *Env, m *Mapping, a Addr, every time.Duration, done func(uint32) bool, limit int, lost *uint64) (uint32, error) {
	for n := 0; ; {
		env.Compute(every)
		v, err := m.Load32(a)
		if err != nil || done(v) {
			return v, err
		}
		*lost++
		if n++; n >= limit {
			return v, nil
		}
	}
}

func spin32(_ *Env, m *Mapping, a Addr, every time.Duration, done func(uint32) bool, limit int, lost *uint64) (uint32, error) {
	return m.Spin32(a, every, done, limit, lost)
}

// spinWorld is one world of TestSpin32MatchesLoadLoop: what to build and
// what its two clients do, each handed the spin under test.
type spinWorld struct {
	name    string
	loss    float64
	prepare func(w *World)
	// clients run on hosts 0 and 1; note logs what a spin ended on.
	clients [2]func(env *Env, capRW Capability, spin spinFunc, note func(string)) error
}

type spinFunc func(env *Env, m *Mapping, a Addr, every time.Duration, done func(uint32) bool, limit int, lost *uint64) (uint32, error)

const spinEvery = 50 * time.Microsecond

// noLimit is the limit of a spin only a won look ends.
const noLimit = 1 << 30

// spinWriter owns the page through the RW view and publishes n values,
// one per period, each with a purge broadcast.
func spinWriter(n uint32, period time.Duration) func(*Env, Capability, spinFunc, func(string)) error {
	return func(env *Env, capRW Capability, _ spinFunc, _ func(string)) error {
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

// spinReader spins on the read-only short view until it has seen n: a
// spin ends on a value it has not seen, or after purgeEvery losses
// (0: never), when it purges its copy — so polls of every length from one
// up end in a purge, a fault and a refetch.
func spinReader(n uint32, purgeEvery int) func(*Env, Capability, spinFunc, func(string)) error {
	return func(env *Env, capRW Capability, spin spinFunc, note func(string)) error {
		m, err := env.Attach(capRW.ReadOnly(), RO)
		if err != nil {
			return err
		}
		a := m.Addr(0, 0).Short()
		last := uint32(0)
		news := func(v uint32) bool { return v >= n || v != last }
		limit := purgeEvery
		if limit == 0 {
			limit = noLimit
		}
		var lost uint64
		for {
			from := lost
			v, err := spin(env, m, a, spinEvery, news, limit, &lost)
			note(fmt.Sprint("spun to ", v, " after ", lost-from, " losses"))
			if err != nil || v >= n {
				return err
			}
			if v != last {
				last = v
				continue
			}
			if err := m.Purge(a); err != nil {
				return err
			}
		}
	}
}

// spinStealer is one of two processes incrementing a word through the
// consistent view: each spins until the value is its to increment, and
// each increment steals the page from under the other's spin.
func spinStealer(id, target uint32) func(*Env, Capability, spinFunc, func(string)) error {
	return func(env *Env, capRW Capability, spin spinFunc, note func(string)) error {
		m, err := env.Attach(capRW, RW)
		if err != nil {
			return err
		}
		a := m.Addr(0, 0).Short()
		mine := func(v uint32) bool { return v >= target || v%2 == id }
		var lost uint64
		for {
			from := lost
			v, err := spin(env, m, a, spinEvery, mine, noLimit, &lost)
			note(fmt.Sprint("spun to ", v, " after ", lost-from, " losses"))
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
			err := client(env, seg.CapRW(), spin, func(s string) {
				obs = append(obs, fmt.Sprintf("%v host %d %s", env.Now(), i, s))
			})
			obs = append(obs, fmt.Sprintf("%v host %d done: %v", env.Now(), i, err))
		})
	}
	w.RunUntil(5 * time.Second)
	h := w.Harvest(w.Now())
	h.Engine = sim.Counters{} // the one thing meant to differ
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
// Every spin's value, losses and end instant, World.Harvest,
// EventsDispatched and both clients' CPU must agree; only the kernel's
// own counters may (and must) differ.
func TestSpin32MatchesLoadLoop(t *testing.T) {
	crash := func(w *World) {
		// The reader's host loses its directory in mid-spin and rejoins.
		w.Kernel().After(30*time.Millisecond+7*time.Microsecond-w.Kernel().Now(), "crash", func() { w.CrashHost(1) })
		w.Kernel().After(55*time.Millisecond-w.Kernel().Now(), "recover", func() { w.RecoverHost(1) })
	}
	worlds := []spinWorld{
		{name: "purged mid-spin", clients: [2]func(*Env, Capability, spinFunc, func(string)) error{
			spinWriter(12, 7*time.Millisecond), spinReader(12, 3)}},
		{name: "purged every look", clients: [2]func(*Env, Capability, spinFunc, func(string)) error{
			spinWriter(6, 7*time.Millisecond), spinReader(6, 1)}},
		{name: "stolen mid-spin", clients: [2]func(*Env, Capability, spinFunc, func(string)) error{
			spinStealer(0, 40), spinStealer(1, 40)}},
		{name: "crashed and recovered", prepare: crash, clients: [2]func(*Env, Capability, spinFunc, func(string)) error{
			spinWriter(12, 7*time.Millisecond), spinReader(12, 0)}},
		{name: "2% loss", loss: 0.02, clients: [2]func(*Env, Capability, spinFunc, func(string)) error{
			spinWriter(40, 3*time.Millisecond), spinReader(40, 2)}},
		{name: "2% loss, stolen", loss: 0.02, clients: [2]func(*Env, Capability, spinFunc, func(string)) error{
			spinStealer(0, 60), spinStealer(1, 60)}},
	}
	for _, sw := range worlds {
		t.Run(sw.name, func(t *testing.T) {
			want := sw.run(t, loadLoop32)
			got := sw.run(t, spin32)
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("Spin32 diverges from the loop at line %d of %d/%d:\nloop:   %v\nSpin32: %v", i, len(want), len(got), want[i:min(i+1, len(want))], got[i:min(i+1, len(got))])
			}
			if len(want) < 12 {
				t.Errorf("only %d observations: the world did not spin", len(want))
			}
		})
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
		{"Spin32", spin32},
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
			var lost uint64
			_, got = spin.fn(env, m, m.Addr(1, 0).Short(), spinEvery, func(uint32) bool { asked++; return false }, noLimit, &lost)
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
		var lost uint64
		_, got = m.Spin32(m.Addr(0, 0).Short(), 0, func(uint32) bool { return false }, noLimit, &lost)
	})
	w.Run()
	if got == nil {
		t.Error("Spin32 with every = 0 returned no error")
	}
}

// TestSpin32DoesNotAllocate: a steady-state spin — polls of five looks
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
		never := func(uint32) bool { return false }
		var lost uint64
		for {
			if _, err := m.Spin32(a, spinEvery, never, 5, &lost); err != nil {
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
