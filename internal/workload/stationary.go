// The stationary-owner counter workload: the paper's final-protocol
// (P5) discipline scaled to cluster size. Every host owns one page and
// keeps it stationary — it increments a counter in its own short page
// and broadcasts a PURGE after each update, while periodically sampling
// a neighbour's counter with a purge + demand fetch. Because ownership
// never moves and every update is one short broadcast, the workload's
// network load grows linearly in host count, which is what makes 64-
// and 256-host worlds tractable and why the paper's protocol-5 shape is
// the scale-out baseline.
package workload

import (
	"fmt"
	"time"

	"mether"
)

// sampleEvery makes each host sample its ring neighbour's counter (purge
// the local replica, then demand-fetch a fresh copy) every this many of
// its own updates. Demand sampling is used rather than a data-driven
// block because a neighbour that has finished its run produces no
// further transits — at 256 hosts the startup skew makes that strand
// passive waiters, where a demand request is always answered by the
// stationary owner.
const sampleEvery = 4

// StationaryConfig parameterizes the cluster-scale stationary-owner
// counter run.
type StationaryConfig struct {
	// Hosts is the cluster size (default 4, min 2).
	Hosts int
	// Iters is the per-host update count (default 32).
	Iters int
	// WindowedAttach maps only each host's working set — its own page
	// and its sampled neighbour's page — instead of the whole segment.
	// The classic full attach maps hosts × pages states (quadratic) for
	// a workload that touches two pages per host; the 4096/10000-host
	// tiers require the window.
	WindowedAttach bool
	// StaggerStart delays host i's start by i×StaggerStart, spreading
	// the update broadcasts across virtual time instead of colliding
	// every host's first purge at t=0. On a warm world the attach itself
	// costs no virtual time, so the stagger is pure offset, not hidden
	// work.
	StaggerStart time.Duration
	// Options is the cluster the run is built on. Each host's page is
	// owned (served) by that host, so on bridged trunks placement follows
	// the block partition: intra-trunk samples stay local while the
	// border hosts' ring neighbours sit across a bridge.
	Options
}

// StationaryReport is the stationary run's measurements. The latency
// fields of ClusterStats hold the driver fault-latency distribution
// (data-driven sample waits included).
type StationaryReport struct {
	Hosts   int
	Iters   int
	Updates uint64 // total own-page updates completed
	Samples uint64 // neighbour samples observed
	DNF     bool
	ClusterStats
}

func (c StationaryConfig) withDefaults() (StationaryConfig, error) {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.Iters == 0 {
		c.Iters = 32
	}
	if c.Hosts < 2 {
		return c, fmt.Errorf("workload: stationary needs at least 2 hosts")
	}
	return c, nil
}

// RunStationary measures N hosts each updating a stationary owned page
// and passively observing a neighbour.
func RunStationary(cfg StationaryConfig) (StationaryReport, error) {
	r, w, err := runStationary(cfg)
	if w != nil {
		w.Shutdown()
	}
	return r, err
}

// runStationary is RunStationary handing back the finished world still
// open (nil if it was never built), so a test can hold the report
// against the world's own accessors.
func runStationary(cfg StationaryConfig) (StationaryReport, *mether.World, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return StationaryReport{}, nil, err
	}
	w, seg, err := cfg.ownedPages("stationary", cfg.Hosts)
	if err != nil {
		return StationaryReport{}, nil, err
	}
	capRW := seg.CapRW()

	done := make([]bool, cfg.Hosts)
	errs := make([]error, cfg.Hosts)
	var updates, samples uint64
	var lastFinish time.Duration
	for i := 0; i < cfg.Hosts; i++ {
		i := i
		w.Spawn(i, fmt.Sprintf("stat%d", i), func(env *mether.Env) {
			if cfg.StaggerStart > 0 {
				env.SleepFor(time.Duration(i) * cfg.StaggerStart)
			}
			var own, peers *mether.Mapping
			var err error
			if cfg.WindowedAttach {
				// Working-set attach: this host touches its own page and
				// its ring neighbour's, nothing else.
				own, err = env.AttachPages(capRW, mether.RW, i)
				if err == nil {
					peers, err = env.AttachPages(capRW.ReadOnly(), mether.RO, (i+1)%cfg.Hosts)
				}
			} else {
				own, err = env.Attach(capRW, mether.RW)
				if err == nil {
					peers, err = env.Attach(capRW.ReadOnly(), mether.RO)
				}
			}
			if err != nil {
				errs[i] = err
				return
			}
			ownAddr := own.Addr(i, 0).Short()
			peerAddr := peers.Addr((i+1)%cfg.Hosts, 0).Short()
			for n := 0; n < cfg.Iters; n++ {
				env.Compute(incCost)
				v, err := own.Load32(ownAddr)
				if err != nil {
					errs[i] = err
					return
				}
				if err := own.Store32(ownAddr, v+1); err != nil {
					errs[i] = err
					return
				}
				// Passive update: the stationary page never moves; one
				// short broadcast refreshes every resident copy.
				if err := own.Purge(ownAddr); err != nil {
					errs[i] = err
					return
				}
				updates++
				// Forced fresh sample: purge the local replica and
				// demand-fetch the neighbour's current value from its
				// stationary owner. Between samples the replica rides
				// the neighbour's purge broadcasts for free.
				if n%sampleEvery == sampleEvery-1 {
					if err := peers.Purge(peerAddr); err != nil {
						errs[i] = err
						return
					}
					if _, err := peers.Load32(peerAddr); err != nil {
						errs[i] = err
						return
					}
					samples++
				}
			}
			done[i] = true
			if t := env.Now(); t > lastFinish {
				lastFinish = t
			}
		})
	}
	cs, dnf, err := cfg.finish(w, errs, done, &lastFinish)
	return StationaryReport{Hosts: cfg.Hosts, Iters: cfg.Iters, Updates: updates, Samples: samples,
		DNF: dnf, ClusterStats: cs}, w, err
}
