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
	"errors"
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

func (c StationaryConfig) withDefaults() (StationaryConfig, error) {
	if err := errors.Join(NonNegative("Hosts", c.Hosts), NonNegative("Iters", c.Iters),
		NonNegative("StaggerStart", c.StaggerStart)); err != nil {
		return c, fmt.Errorf("workload: stationary %w", err)
	}
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

// Stationary is N hosts each updating a stationary owned page and
// passively observing a neighbour. Its ops are the updates; its
// latency is the drivers' fault latency (sample fetches included).
func Stationary(c StationaryConfig) (Workload, error) {
	c, err := c.withDefaults()
	if err != nil {
		return Workload{}, err
	}
	var capRW mether.Capability
	t := new(Tally)
	wl := Workload{Hosts: c.Hosts, Clients: make([]Client, c.Hosts), Tally: t}
	wl.Pages, wl.Layout = ownedPages("stationary", c.Hosts, &capRW)
	for i := range wl.Clients {
		wl.Clients[i] = Client{i, fmt.Sprintf("stat%d", i)}
	}
	wl.Body = func(env *mether.Env, i int) error {
		if c.StaggerStart > 0 {
			env.SleepFor(time.Duration(i) * c.StaggerStart)
		}
		var own, peers *mether.Mapping
		var err error
		if c.WindowedAttach {
			// Working-set attach: this host touches its own page and its
			// ring neighbour's, nothing else.
			own, err = env.AttachPages(capRW, mether.RW, i)
			if err == nil {
				peers, err = env.AttachPages(capRW.ReadOnly(), mether.RO, (i+1)%c.Hosts)
			}
		} else {
			own, err = env.Attach(capRW, mether.RW)
			if err == nil {
				peers, err = env.Attach(capRW.ReadOnly(), mether.RO)
			}
		}
		if err != nil {
			return err
		}
		ownAddr := own.Addr(i, 0).Short()
		peerAddr := peers.Addr((i+1)%c.Hosts, 0).Short()
		for n := 0; n < c.Iters; n++ {
			env.Compute(incCost)
			v, err := own.Load32(ownAddr)
			if err != nil {
				return err
			}
			if err := own.Store32(ownAddr, v+1); err != nil {
				return err
			}
			// Passive update: the stationary page never moves; one short
			// broadcast refreshes every resident copy.
			if err := own.Purge(ownAddr); err != nil {
				return err
			}
			t.Ops++
			// Forced fresh sample: purge the local replica and
			// demand-fetch the neighbour's current value from its
			// stationary owner. Between samples the replica rides the
			// neighbour's purge broadcasts for free.
			if n%sampleEvery == sampleEvery-1 {
				if err := peers.Purge(peerAddr); err != nil {
					return err
				}
				if _, err := peers.Load32(peerAddr); err != nil {
					return err
				}
				t.Samples++
			}
		}
		return nil
	}
	return wl, nil
}
