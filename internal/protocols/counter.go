package protocols

import (
	"fmt"
	"time"

	"mether"
	"mether/internal/stats"
	"mether/internal/trace"
)

// Run executes one counter experiment and returns its report.
func Run(cfg Config) (Report, error) {
	r, w, err := run(cfg)
	if w != nil {
		w.Shutdown()
	}
	return r, err
}

// run is Run handing back the finished world still open (nil if it was
// never built), so a test can hold the report against the world's own
// accessors.
func run(cfg Config) (Report, *mether.World, error) {
	cfg = cfg.withDefaults()
	switch cfg.Protocol {
	case BaselineSingle:
		return runBaselineSingle(cfg)
	case BaselineLocalPair:
		return runCounter(cfg, true)
	case P1FullPage, P2ShortPage, P3DisjointRO, P3Hysteresis, P4DataDriven, P5Final:
		return runCounter(cfg, false)
	default:
		return Report{}, nil, fmt.Errorf("protocols: unknown protocol %d", cfg.Protocol)
	}
}

// clientState tracks one client's protocol-level counters.
type clientState struct {
	wins     uint64
	losses   uint64
	done     bool
	finishAt time.Duration
	err      error
}

// runBaselineSingle counts alone on one host: pure increment cost.
func runBaselineSingle(cfg Config) (Report, *mether.World, error) {
	var capRW mether.Capability
	w, err := cfg.World(2, 8, func(w *mether.World) error {
		seg, err := w.CreateSegment("counter", 1, 0)
		if err == nil {
			capRW = seg.CapRW()
		}
		return err
	})
	if err != nil {
		return Report{}, nil, err
	}
	tap := maybeTap(w, cfg)
	var st clientState
	w.Spawn(0, "solo", func(env *mether.Env) {
		m, err := env.Attach(capRW, mether.RW)
		if err != nil {
			st.err = err
			return
		}
		a := m.Addr(0, 0).Short()
		for v := uint32(0); v < cfg.Target; v++ {
			env.Compute(incCost)
			if err := m.Store32(a, v+1); err != nil {
				st.err = err
				return
			}
			st.wins++
		}
		st.done = true
		st.finishAt = env.Now()
	})
	w.RunUntil(cfg.RunCap())
	if st.err != nil {
		return Report{}, w, st.err
	}
	r := harvest(cfg, w, []*clientState{&st}, 1)
	if tap != nil {
		r.Trace = tap.String()
	}
	return r, w, nil
}

// maybeTap attaches the protocol analyzer when tracing is requested.
func maybeTap(w *mether.World, cfg Config) *trace.Log {
	if cfg.TraceLimit <= 0 {
		return nil
	}
	return w.AttachTap(cfg.TraceLimit)
}

// runCounter executes the two-process protocols. When local is true both
// processes share host 0 (the local-pair baseline); otherwise they run on
// hosts 0 and 1 with the configured protocol.
func runCounter(cfg Config, local bool) (Report, *mether.World, error) {
	var cap mether.Capability
	var spacePages int
	w, err := cfg.World(2, 8, func(w *mether.World) (err error) {
		cap, spacePages, err = createCounterSegments(w, cfg)
		return err
	})
	if err != nil {
		return Report{}, nil, err
	}
	tap := maybeTap(w, cfg)

	states := []*clientState{{}, {}}
	for i := 0; i < 2; i++ {
		i := i
		hostIdx := i
		if local {
			hostIdx = 0
		}
		w.Spawn(hostIdx, fmt.Sprintf("client%d", i), func(env *mether.Env) {
			runClient(env, cfg, cap, uint32(i), states[i])
		})
	}
	w.RunUntil(cfg.RunCap())
	r := harvest(cfg, w, states, spacePages)
	if tap != nil {
		r.Trace = tap.String()
	}
	return r, w, nil
}

// createCounterSegments lays out the pages each protocol needs and mints
// the capability the clients attach with.
func createCounterSegments(w *mether.World, cfg Config) (mether.Capability, int, error) {
	switch cfg.Protocol {
	case P3DisjointRO, P3Hysteresis, P5Final:
		// Disjoint one-way pages, one owned by each process's host.
		seg, err := w.CreateSegmentOwners("counter", []int{0, 1})
		if err != nil {
			return mether.Capability{}, 0, err
		}
		return seg.CapRW(), 2, nil
	default:
		seg, err := w.CreateSegment("counter", 1, 0)
		if err != nil {
			return mether.Capability{}, 0, err
		}
		return seg.CapRW(), 1, nil
	}
}

// runClient dispatches to the per-protocol client loop.
func runClient(env *mether.Env, cfg Config, cap mether.Capability, id uint32, st *clientState) {
	seg, err := env.Attach(cap, mether.RW)
	if err != nil {
		st.err = err
		return
	}
	switch cfg.Protocol {
	case BaselineLocalPair, P1FullPage:
		err = sharedPageLoop(env, seg, cfg, id, st, false)
	case P2ShortPage:
		err = sharedPageLoop(env, seg, cfg, id, st, true)
	case P3DisjointRO:
		// The degenerate base protocol: spin on the read-only copy with
		// no active update at all, trusting snoopy refresh — which the
		// spin itself starves. (HysteresisN = 1..N gives the flood and
		// hysteresis variants via P3Hysteresis.)
		c := cfg
		c.HysteresisN = 1 << 30
		err = disjointDemandLoop(env, seg, c, cap, id, st)
	case P3Hysteresis:
		err = disjointDemandLoop(env, seg, cfg, cap, id, st)
	case P4DataDriven:
		err = onePageDataLoop(env, seg, cfg, cap, id, st)
	case P5Final:
		err = disjointDataLoop(env, seg, cfg, cap, id, st)
	default:
		err = fmt.Errorf("protocols: no client loop for %v", cfg.Protocol)
	}
	if err != nil {
		st.err = err
		return
	}
	st.done = true
	st.finishAt = env.Now()
}

// The client loops spin with Mapping.Spin32, a look every checkCost until
// the word asks for what only the process can do (an increment, a purge,
// a sleep). The predicate, built once, sees every loaded value and so
// keeps the per-look counts; it runs in kernel event context, so
// whatever blocks stays in the loop.

// lossCounter is the predicate of the one-page protocols: a look loses,
// and the spin goes on, while the word is the peer's to increment.
func lossCounter(cfg Config, id uint32, st *clientState) func(uint32) bool {
	return func(v uint32) bool {
		if v >= cfg.Target || v%2 == id {
			return false
		}
		st.losses++
		return true
	}
}

// sharedPageLoop implements protocols 1 and 2 (and the local pair): both
// processes increment one word on a single shared consistent page (the
// spin is through that view: it ends, in a fault, when the peer takes it).
func sharedPageLoop(env *mether.Env, m *mether.Mapping, cfg Config, id uint32, st *clientState, short bool) error {
	a := m.Addr(0, 0)
	if short {
		a = a.Short()
	}
	lost := lossCounter(cfg, id, st)
	for {
		v, err := m.Spin32(a, checkCost, lost)
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
		st.wins++
		if v+1 >= cfg.Target {
			return nil
		}
	}
}

// disjointDemandLoop implements protocols 3 (HysteresisN == 1) and 3h:
// each process writes its own page and spins on a read-only copy of the
// peer's, purging it every HysteresisN losses to force a fresh fetch.
func disjointDemandLoop(env *mether.Env, own *mether.Mapping, cfg Config, cap mether.Capability, id uint32, st *clientState) error {
	peerMap, ownAddr, peerAddr, err := disjointViews(env, cap, own, id)
	if err != nil {
		return err
	}
	sincePurge := 0
	myVal := uint32(0)
	// The loss that purges ends the spin; under the ablation, every loss.
	lost := func(v uint32) bool {
		if v >= cfg.Target || myVal >= cfg.Target || v%2 == id && v+1 > myVal {
			return false
		}
		st.losses++
		sincePurge++
		return cfg.SleepHysteresis <= 0 && sincePurge < cfg.HysteresisN
	}
	for {
		v, err := peerMap.Spin32(peerAddr, checkCost, lost)
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
			st.wins++
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
func onePageDataLoop(env *mether.Env, rw *mether.Mapping, cfg Config, cap mether.Capability, id uint32, st *clientState) error {
	ro, err := env.Attach(cap.ReadOnly(), mether.RO)
	if err != nil {
		return err
	}
	aW := rw.Addr(0, 0).Short()
	aD := ro.Addr(0, 0).Short().DataDriven()
	lost := lossCounter(cfg, id, st)
	for {
		v, err := ro.Spin32(aD, checkCost, lost)
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
		st.wins++
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
func disjointDataLoop(env *mether.Env, own *mether.Mapping, cfg Config, cap mether.Capability, id uint32, st *clientState) error {
	peerMap, ownAddr, peerAddr, err := disjointViews(env, cap, own, id)
	if err != nil {
		return err
	}
	peerData := peerAddr.DataDriven()
	spins := 0
	myVal := uint32(0)
	// The spin ends on the loss after which the waiter blocks.
	lost := func(v uint32) bool {
		if v >= cfg.Target || myVal >= cfg.Target || v%2 == id && v+1 > myVal {
			return false
		}
		st.losses++
		spins++
		return spins < spinBeforeBlock
	}
	for {
		v, err := peerMap.Spin32(peerAddr, checkCost, lost)
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
			st.wins++
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

// harvest extracts the figure rows from a finished (or capped) world.
func harvest(cfg Config, w *mether.World, states []*clientState, spacePages int) Report {
	r := Report{
		Protocol:   cfg.Protocol,
		Target:     cfg.Target,
		SpacePages: spacePages,
		SpaceBytes: spacePages * mether.PageSize,
	}

	finished := true
	var wallEnd time.Duration
	for _, st := range states {
		r.Losses += st.losses
		r.Wins += st.wins
		if !st.done {
			finished = false
		}
		if st.finishAt > wallEnd {
			wallEnd = st.finishAt
		}
	}
	r.DNF = !finished
	if r.DNF {
		wallEnd = w.Now()
	}
	r.Harvest = w.Harvest(wallEnd)
	r.Additions = uint32(r.Wins)
	r.LossWin = stats.Ratio(r.Losses, r.Wins)

	// Host 0's client and server times (the runs are symmetric).
	// The server is identified by process, not by name: a client may be
	// spawned under any name (nil in kernel-server mode matches nothing).
	server := w.Driver(0).Server()
	for _, p := range w.HostMachine(0).Procs() {
		if p == server {
			r.SysServer += p.Sys() + p.User()
		} else {
			r.User += p.User()
			r.Sys += p.Sys()
		}
	}
	if r.Additions > 0 {
		r.CtxPerAdd = float64(r.CtxSwitches) / float64(r.Additions)
	}
	return r
}
