package protocols

import (
	"fmt"
	"math"

	"mether"
	"mether/internal/workload"
)

// Counter is the counting experiment as a workload on a two-host world:
// two clients count to Target under the protocol (both on host 0 for
// the local pair), or one counts alone for BaselineSingle. Its ops are
// the increments won (the figures' additions), its tally the looks
// lost; with TraceLimit the layout attaches the protocol analyzer.
func Counter(c Config) (workload.Workload, error) {
	c = c.withDefaults()
	if c.Protocol < BaselineSingle || c.Protocol > P5Final {
		return workload.Workload{}, fmt.Errorf("protocols: unknown protocol %d", c.Protocol)
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
			if c.TraceLimit > 0 {
				t.Trace = w.AttachTap(c.TraceLimit)
			}
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
	seg, err := env.Attach(cap, mether.RW)
	if err != nil {
		return err
	}
	switch cfg.Protocol {
	case P2ShortPage:
		return sharedPageLoop(env, seg, cfg, id, t, true)
	case P3DisjointRO:
		// The degenerate base protocol: spin on the read-only copy with
		// no active update at all, trusting snoopy refresh — which the
		// spin itself starves. (HysteresisN = 1..N gives the flood and
		// hysteresis variants via P3Hysteresis.)
		cfg.HysteresisN = 1 << 30
		return disjointDemandLoop(env, seg, cfg, cap, id, t)
	case P3Hysteresis:
		return disjointDemandLoop(env, seg, cfg, cap, id, t)
	case P4DataDriven:
		return onePageDataLoop(env, seg, cfg, cap, id, t)
	case P5Final:
		return disjointDataLoop(env, seg, cfg, cap, id, t)
	}
	// BaselineLocalPair and P1FullPage.
	return sharedPageLoop(env, seg, cfg, id, t, false)
}

// The client loops spin with Mapping.Spin32, a look every checkCost until
// the word asks for what only the process can do (an increment, a purge,
// a sleep) or the losses reach the loop's limit. The predicate, built
// once, is pure: Spin32 counts the losses into the tally.

// noLimit is the loss limit of a spin that only a won look ends.
const noLimit = math.MaxInt

// yours is the predicate of the one-page protocols: a look wins when the
// word is this process's to increment, or the target is reached.
func yours(cfg Config, id uint32) func(uint32) bool {
	return func(v uint32) bool { return v >= cfg.Target || v%2 == id }
}

// sharedPageLoop implements protocols 1 and 2 (and the local pair): both
// processes increment one word on a single shared consistent page (the
// spin is through that view: it ends, in a fault, when the peer takes it).
func sharedPageLoop(env *mether.Env, m *mether.Mapping, cfg Config, id uint32, t *workload.Tally, short bool) error {
	a := m.Addr(0, 0)
	if short {
		a = a.Short()
	}
	done := yours(cfg, id)
	for {
		v, err := m.Spin32(a, checkCost, done, noLimit, &t.Losses)
		if err != nil {
			return err
		}
		if v >= cfg.Target {
			return nil
		}
		env.Compute(incCost)
		if err := m.Store32(a, v+1); err != nil {
			return err
		}
		t.Ops++
		if v+1 >= cfg.Target {
			return nil
		}
	}
}

// disjointDemandLoop implements protocols 3 (HysteresisN == 1) and 3h:
// each process writes its own page and spins on a read-only copy of the
// peer's, purging it every HysteresisN losses to force a fresh fetch.
func disjointDemandLoop(env *mether.Env, own *mether.Mapping, cfg Config, cap mether.Capability, id uint32, t *workload.Tally) error {
	peerMap, ownAddr, peerAddr, err := disjointViews(env, cap, own, id)
	if err != nil {
		return err
	}
	sincePurge := 0
	myVal := uint32(0)
	done := func(v uint32) bool { return v >= cfg.Target || myVal >= cfg.Target || v%2 == id && v+1 > myVal }
	for {
		// The loss that purges ends the spin; under the ablation, every loss.
		limit := cfg.HysteresisN - sincePurge
		if cfg.SleepHysteresis > 0 {
			limit = 1
		}
		from := t.Losses
		v, err := peerMap.Spin32(peerAddr, checkCost, done, limit, &t.Losses)
		if sincePurge += int(t.Losses - from); err != nil {
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
			sincePurge = 0
		case cfg.SleepHysteresis > 0:
			// Ablation: the paper's first fix — a fixed delay.
			env.SleepFor(cfg.SleepHysteresis)
		default:
			sincePurge = 0
			if err := peerMap.Purge(peerAddr); err != nil {
				return err
			}
		}
	}
}

// onePageDataLoop implements protocol 4: one page, writers demand-fetch
// the consistent short view, waiters sample the data-driven view. The
// data view is resident whenever this host holds the consistent copy, so
// sampling degenerates to a spin — the paper's observed pathology.
func onePageDataLoop(env *mether.Env, rw *mether.Mapping, cfg Config, cap mether.Capability, id uint32, t *workload.Tally) error {
	ro, err := env.Attach(cap.ReadOnly(), mether.RO)
	if err != nil {
		return err
	}
	aW := rw.Addr(0, 0).Short()
	aD := ro.Addr(0, 0).Short().DataDriven()
	done := yours(cfg, id)
	for {
		v, err := ro.Spin32(aD, checkCost, done, noLimit, &t.Losses)
		if err != nil {
			return err
		}
		if v >= cfg.Target {
			return nil
		}
		env.Compute(incCost)
		if err := rw.Store32(aW, v+1); err != nil {
			return err
		}
		t.Ops++
		if err := rw.Purge(aW); err != nil {
			return err
		}
		if v+1 >= cfg.Target {
			return nil
		}
	}
}

// disjointDataLoop implements the final protocol: disjoint stationary
// pages; after a couple of losses on the resident copy the waiter purges
// it and blocks on the data-driven view until the peer's purge broadcast
// transits.
func disjointDataLoop(env *mether.Env, own *mether.Mapping, cfg Config, cap mether.Capability, id uint32, t *workload.Tally) error {
	peerMap, ownAddr, peerAddr, err := disjointViews(env, cap, own, id)
	if err != nil {
		return err
	}
	peerData := peerAddr.DataDriven()
	spins := 0
	myVal := uint32(0)
	done := func(v uint32) bool { return v >= cfg.Target || myVal >= cfg.Target || v%2 == id && v+1 > myVal }
	for {
		// The spin ends on the loss after which the waiter blocks.
		from := t.Losses
		v, err := peerMap.Spin32(peerAddr, checkCost, done, spinBeforeBlock-spins, &t.Losses)
		if spins += int(t.Losses - from); err != nil {
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
			spins = 0
		default:
			spins = 0
			if err := peerMap.Purge(peerAddr); err != nil {
				return err
			}
			// Touch the data-driven view: sleeps until a transit.
			if _, err := peerMap.Load32(peerData); err != nil {
				return err
			}
		}
	}
}

// disjointViews attaches the read-only peer view and computes the short
// addresses for the disjoint-page protocols (own page = id, peer = 1-id).
func disjointViews(env *mether.Env, cap mether.Capability, own *mether.Mapping, id uint32) (*mether.Mapping, mether.Addr, mether.Addr, error) {
	peerMap, err := env.Attach(cap.ReadOnly(), mether.RO)
	if err != nil {
		return nil, 0, 0, err
	}
	ownAddr := own.Addr(int(id), 0).Short()
	peerAddr := peerMap.Addr(1-int(id), 0).Short()
	return peerMap, ownAddr, peerAddr, nil
}
