package protocols

import (
	"math"

	"mether"
	"mether/internal/workload"
)

// Counter is the counting experiment as a workload on a two-host world:
// two clients count to Target under the protocol (both on host 0 for
// the local pair), or one counts alone for BaselineSingle. Its ops are
// the increments won (the figures' additions), its tally the looks
// lost.
func Counter(c Config) (workload.Workload, error) {
	c, err := c.withDefaults()
	if err != nil {
		return workload.Workload{}, err
	}
	t := new(workload.Tally)
	var capRW mether.Capability
	wl := workload.Workload{Hosts: 2, Pages: 8, Tally: t,
		Layout: func(w *mether.World) error {
			var seg *mether.Segment
			var err error
			if c.Protocol.Pages() == 2 {
				// Disjoint one-way pages, one owned by each process's host.
				seg, err = w.CreateSegmentOwners("counter", []int{0, 1})
			} else {
				seg, err = w.CreateSegment("counter", 1, 0)
			}
			if err != nil {
				return err
			}
			capRW = seg.CapRW()
			return nil
		},
		Clients: []workload.Client{{Host: 0, Name: "client0"}, {Host: 1, Name: "client1"}},
		Body: func(env *mether.Env, id int) error {
			return runClient(env, c, capRW, uint32(id), t)
		}}
	switch c.Protocol {
	case BaselineSingle:
		wl.Clients = []workload.Client{{Host: 0, Name: "solo"}}
		wl.Body = func(env *mether.Env, _ int) error { return countAlone(env, c, capRW, t) }
	case BaselineLocalPair:
		wl.Clients[1].Host = 0
	}
	return wl, nil
}

// countAlone is BaselineSingle's one process: pure increment cost.
func countAlone(env *mether.Env, cfg Config, cap mether.Capability, t *workload.Tally) error {
	m, err := env.Attach(cap, mether.RW)
	if err != nil {
		return err
	}
	a := m.Addr(0, 0).Short()
	for v := uint32(0); v < cfg.Target; v++ {
		env.Compute(incCost)
		if err := m.Store32(a, v+1); err != nil {
			return err
		}
		t.Ops++
	}
	return nil
}

// runClient dispatches to the per-protocol client loop.
func runClient(env *mether.Env, cfg Config, cap mether.Capability, id uint32, t *workload.Tally) error {
	rw, err := env.Attach(cap, mether.RW)
	if err != nil {
		return err
	}
	a := rw.Addr(0, 0)
	switch cfg.Protocol {
	case P2ShortPage:
		return onePageLoop(env, cfg, id, t, rw, a.Short(), rw, a.Short(), false)
	case P4DataDriven:
		// Writers demand-fetch the consistent short view, waiters sample
		// the data-driven view. That view is resident whenever this host
		// holds the consistent copy, so sampling degenerates to a spin —
		// the paper's observed pathology.
		ro, err := env.Attach(cap.ReadOnly(), mether.RO)
		if err != nil {
			return err
		}
		return onePageLoop(env, cfg, id, t, ro, ro.Addr(0, 0).Short().DataDriven(), rw, a.Short(), true)
	case P3DisjointRO, P3Hysteresis, P5Final:
		return disjointLoop(env, rw, cfg, cap, id, t)
	}
	// BaselineLocalPair and P1FullPage.
	return onePageLoop(env, cfg, id, t, rw, a, rw, a, false)
}

// The client loops spin with Mapping.Spin32, a look every checkCost until
// the word asks for what only the process can do (an increment, a purge,
// a sleep) or the losses reach the loop's limit. The predicate, built
// once, is pure: Spin32 counts the losses into the tally.

// onePageLoop implements the one-page protocols 1, 2 and 4 (and the
// local pair): both processes increment one word of a single shared
// page. Each looks at the word through look at la until it is its turn
// (the look ends in a fault when the peer takes the page), stores the
// increment through rw at wa and, if purge is set, propagates it.
func onePageLoop(env *mether.Env, cfg Config, id uint32, t *workload.Tally, look *mether.Mapping, la mether.Addr, rw *mether.Mapping, wa mether.Addr, purge bool) error {
	done := func(v uint32) bool { return v >= cfg.Target || v%2 == id }
	for {
		v, err := look.Spin32(la, checkCost, done, math.MaxInt, &t.Losses)
		if err != nil {
			return err
		}
		if v >= cfg.Target {
			return nil
		}
		env.Compute(incCost)
		if err := rw.Store32(wa, v+1); err != nil {
			return err
		}
		t.Ops++
		if purge {
			if err := rw.Purge(wa); err != nil {
				return err
			}
		}
		if v+1 >= cfg.Target {
			return nil
		}
	}
}

// disjointLoop implements the disjoint-page protocols 3, 3h and 5: each
// process writes its own stationary page and propagates every increment,
// and spins on a read-only copy of the peer's. After limit losses it
// purges that copy to force a fresh fetch — P3 all but never, P3h every
// HysteresisN losses, P5 after spinBeforeBlock, then blocking on the
// data-driven view until the peer's purge broadcast transits. Under
// SleepHysteresis the P3 pair sleeps after every loss instead.
func disjointLoop(env *mether.Env, own *mether.Mapping, cfg Config, cap mether.Capability, id uint32, t *workload.Tally) error {
	peer, err := env.Attach(cap.ReadOnly(), mether.RO)
	if err != nil {
		return err
	}
	ownAddr := own.Addr(int(id), 0).Short()
	peerAddr := peer.Addr(1-int(id), 0).Short()
	limit, sleep := cfg.HysteresisN, cfg.SleepHysteresis
	switch {
	case cfg.Protocol == P5Final:
		limit, sleep = spinBeforeBlock, 0
	case sleep > 0:
		// Ablation: the paper's first fix — a fixed delay.
		limit = 1
	case cfg.Protocol == P3DisjointRO:
		// The degenerate base protocol: no active update at all, trusting
		// snoopy refresh — which the spin itself starves.
		limit = 1 << 30
	}
	myVal := uint32(0)
	done := func(v uint32) bool { return v >= cfg.Target || myVal >= cfg.Target || v%2 == id && v+1 > myVal }
	for {
		// A spin ends on a won look or on the loss that purges (or sleeps).
		v, err := peer.Spin32(peerAddr, checkCost, done, limit, &t.Losses)
		if err != nil {
			return err
		}
		switch {
		case v >= cfg.Target || myVal >= cfg.Target:
			return nil
		case v%2 == id && v+1 > myVal:
			env.Compute(incCost)
			myVal = v + 1
			if err := own.Store32(ownAddr, myVal); err != nil {
				return err
			}
			t.Ops++
			if err := own.Purge(ownAddr); err != nil {
				return err
			}
			if myVal >= cfg.Target {
				return nil
			}
		case sleep > 0:
			env.SleepFor(sleep)
		default:
			if err := peer.Purge(peerAddr); err != nil {
				return err
			}
			if cfg.Protocol == P5Final {
				// Touch the data-driven view: sleeps until a transit.
				if _, err := peer.Load32(peerAddr.DataDriven()); err != nil {
					return err
				}
			}
		}
	}
}
