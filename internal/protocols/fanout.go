package protocols

import (
	"fmt"
	"time"

	"mether"
	"mether/internal/workload"
)

// FanoutMode selects how N readers follow one writer's updates.
type FanoutMode int

const (
	// FanoutDataDriven: readers sleep on the data-driven view; the
	// writer's single purge broadcast refreshes and wakes all of them.
	// This is the paper's scaling argument made concrete: like a
	// hardware cache invalidate, one broadcast costs the writer the same
	// no matter how many hosts hold copies.
	FanoutDataDriven FanoutMode = iota + 1
	// FanoutDemand: readers purge and demand-refetch to observe each
	// update; every reader costs the writer's host a request/response,
	// so writer-side work scales with the reader count.
	FanoutDemand
)

func (m FanoutMode) String() string {
	switch m {
	case FanoutDataDriven:
		return "data-driven"
	case FanoutDemand:
		return "demand-refetch"
	default:
		return fmt.Sprintf("FanoutMode(%d)", int(m))
	}
}

// FanoutConfig parameterizes a one-writer / N-reader run.
type FanoutConfig struct {
	Mode    FanoutMode
	Readers int
	Updates int // writer updates (default 32)
	// Options is the cluster the run is built on: the writer's host and
	// one host per reader.
	workload.Options
}

func (c FanoutConfig) withDefaults() (FanoutConfig, error) {
	if err := workload.NonNegative("Updates", c.Updates); err != nil {
		return c, fmt.Errorf("protocols: fanout %w", err)
	}
	if c.Readers <= 0 {
		return c, fmt.Errorf("protocols: need at least one reader")
	}
	if c.Mode != FanoutDataDriven && c.Mode != FanoutDemand {
		return c, fmt.Errorf("protocols: unknown fanout mode %d", c.Mode)
	}
	if c.Updates == 0 {
		c.Updates = 32
	}
	return c, nil
}

// Fanout is one writer publishing paced updates to Readers reader
// hosts: client 0 writes on host 0, client r reads on host r. Its ops
// are the updates, and its tally counts the updates readers skipped.
func Fanout(c FanoutConfig) (workload.Workload, error) {
	c, err := c.withDefaults()
	if err != nil {
		return workload.Workload{}, err
	}
	t := &workload.Tally{Ops: uint64(c.Updates)}
	var capRW mether.Capability
	wl := workload.Workload{Hosts: c.Readers + 1, Pages: 8, Tally: t,
		Clients: make([]workload.Client, c.Readers+1),
		Layout: func(w *mether.World) error {
			seg, err := w.CreateSegment("fanout", 1, 0)
			if err == nil {
				capRW = seg.CapRW()
			}
			return err
		}}
	wl.Clients[0] = workload.Client{Host: 0, Name: "writer"}
	for r := 1; r <= c.Readers; r++ {
		wl.Clients[r] = workload.Client{Host: r, Name: fmt.Sprintf("reader%d", r-1)}
	}
	wl.Body = func(env *mether.Env, i int) error {
		if i == 0 {
			return fanoutWriter(env, capRW, c.Updates)
		}
		return fanoutReader(env, capRW, c, t)
	}
	return wl, nil
}

// fanoutWriter publishes updates 1..n, one purge broadcast each.
func fanoutWriter(env *mether.Env, capRW mether.Capability, n int) error {
	m, err := env.Attach(capRW, mether.RW)
	if err != nil {
		return err
	}
	a := m.Addr(0, 0).Short()
	for i := 1; i <= n; i++ {
		env.Compute(50 * time.Microsecond)
		if err := m.Store32(a, uint32(i)); err != nil {
			return err
		}
		if err := m.Purge(a); err != nil {
			return err
		}
		// Paced updates: readers must keep up between publishes.
		env.SleepFor(25 * time.Millisecond)
	}
	return nil
}

// fanoutReader follows the writer until it has seen the last update.
func fanoutReader(env *mether.Env, capRW mether.Capability, c FanoutConfig, t *workload.Tally) error {
	m, err := env.Attach(capRW.ReadOnly(), mether.RO)
	if err != nil {
		return err
	}
	a := m.Addr(0, 0).Short()
	last := uint32(0)
	for last < uint32(c.Updates) {
		var v uint32
		if c.Mode == FanoutDataDriven {
			if v, err = m.Load32(a); err != nil {
				return err
			}
			if v <= last {
				if err := m.Purge(a); err != nil {
					return err
				}
				if _, err := m.Load32(a.DataDriven()); err != nil {
					return err
				}
				continue
			}
		} else {
			if err := m.Purge(a); err != nil {
				return err
			}
			if v, err = m.Load32(a); err != nil {
				return err
			}
			if v <= last {
				env.SleepFor(2 * time.Millisecond)
				continue
			}
		}
		t.Missed += uint64(v - last - 1)
		last = v
	}
	return nil
}
