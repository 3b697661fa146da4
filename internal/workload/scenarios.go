// Scenario workloads beyond the single-pipe throughput run: the hotspot,
// barrier-phase and producer-consumer-pipeline patterns the sweep engine
// measures across its parameter grids. Each is a Workload whose report
// holds virtual-time metrics only, so a fixed seed always yields an
// identical report regardless of the real scheduler.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"mether"
	"mether/internal/stats"
	"mether/pipe"
)

const (
	// incCost is the CPU cost per update of the hotspot and stationary
	// clients (the counter protocols' per-increment cost).
	incCost = 50 * time.Microsecond
	// stageCost is the per-message compute at every pipeline stage.
	stageCost = 200 * time.Microsecond
)

// HotspotConfig parameterizes a hot-page contention run: every host
// repeatedly updates its own word of one shared consistent page, so the
// single consistent copy bounces between all hosts.
type HotspotConfig struct {
	// Hosts is the cluster size (default 4; at most 8 with ShortPage,
	// since the 32-byte short region holds eight words).
	Hosts int
	// Iters is the per-host update count (default 32).
	Iters int
	// ShortPage selects the 32-byte view (the paper's fast path); when
	// false every bounce moves the full 8 KiB page.
	ShortPage bool
	// Writers bounds how many hosts actively update the hot page (0 =
	// every host). The remaining hosts hold resident replicas and ingest
	// every broadcast — the snoop load is still cluster-wide. At the
	// 1024-host tier an all-writers hotspot is O(hosts³) in simulation
	// events (bounces × receivers × outstanding requesters), so the
	// large cells bound the writer set to keep the cell tractable while
	// the fan-out being measured stays at full cluster size.
	Writers int
	// OwnerTrunk places the hot page's initial owner on a trunk (its
	// first host). The owner is where the consistent copy starts — on a
	// bridged topology, which trunk hosts it decides who pays the
	// store-and-forward hop for the first round of steals.
	OwnerTrunk int
	// Options is the cluster the run is built on. Hotspot fault cells
	// exercise bridge partition/heal, so they must leave ClaimRetries
	// zero (see Options.ClaimRetries).
	Options
}

func (c HotspotConfig) withDefaults() (HotspotConfig, error) {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.Iters == 0 {
		c.Iters = 32
	}
	if c.Hosts < 2 {
		return c, fmt.Errorf("workload: hotspot needs at least 2 hosts")
	}
	if c.Writers == 0 || c.Writers > c.Hosts {
		c.Writers = c.Hosts
	}
	if c.Writers < 2 {
		return c, fmt.Errorf("workload: hotspot needs at least 2 writers")
	}
	if c.ShortPage && c.Writers > 8 {
		return c, fmt.Errorf("workload: short hotspot page holds 8 word slots, got %d writers", c.Writers)
	}
	if c.Writers*4 > mether.PageSize {
		return c, fmt.Errorf("workload: hotspot page holds %d word slots, got %d writers", mether.PageSize/4, c.Writers)
	}
	return c, nil
}

// Hotspot is N hosts contending for one shared writable page. Its ops
// are the updates.
func Hotspot(c HotspotConfig) (Workload, error) {
	c, err := c.withDefaults()
	if err != nil {
		return Workload{}, err
	}
	var capRW mether.Capability
	t := new(Tally)
	wl := Workload{Hosts: c.Hosts, Pages: 8, Clients: make([]Client, c.Writers), Tally: t,
		Layout: func(w *mether.World) error {
			seg, err := w.CreateSegmentOnTrunk("hotspot", 1, c.OwnerTrunk)
			if err == nil {
				capRW = seg.CapRW()
			}
			return err
		}}
	for i := range wl.Clients {
		wl.Clients[i] = Client{i, fmt.Sprintf("hot%d", i)}
	}
	wl.Body = func(env *mether.Env, i int) error {
		m, err := env.Attach(capRW, mether.RW)
		if err != nil {
			return err
		}
		a := m.Addr(0, 4*i)
		if c.ShortPage {
			a = a.Short()
		}
		for n := 0; n < c.Iters; n++ {
			env.Compute(incCost)
			v, err := m.Load32(a)
			if err != nil {
				return err
			}
			if err := m.Store32(a, v+1); err != nil {
				return err
			}
			t.Ops++
		}
		return nil
	}
	return wl, nil
}

// BarrierConfig parameterizes a bulk-synchronous run: every host
// computes a local phase, announces arrival by writing its own
// stationary page and broadcasting a PURGE, then waits until every peer
// page shows the same phase (the paper's final-protocol shape, N ways).
type BarrierConfig struct {
	// Hosts is the cluster size (default 4).
	Hosts int
	// Phases is the number of barrier rounds (default 8).
	Phases int
	// Work is the mean local compute per phase (default 2 ms). Actual
	// per-host, per-phase work is drawn uniformly from [Work/2, 3Work/2]
	// with the run's seed, modelling skew.
	Work time.Duration
	// HysteresisPurge is how many stale reads a waiter tolerates before
	// purging the peer copy to force a fresh fetch (default 4).
	HysteresisPurge int
	// CheckEvery is the waiter's spin-check interval (default 10 µs). At
	// the 1024-host tier every host must ingest a thousand arrival
	// broadcasts per phase, so a 10 µs poll burns millions of simulation
	// events spinning against a copy that cannot change faster than the
	// broadcast backlog drains; cluster cells scale this with host count.
	CheckEvery time.Duration
	// Options is the cluster the run is built on. On bridged trunks every
	// arrival broadcast must be forwarded to every other trunk before its
	// waiters release — the barrier is the broadcast-bound worst case for
	// a bridged topology.
	Options
}

func (c BarrierConfig) withDefaults() (BarrierConfig, error) {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.Phases == 0 {
		c.Phases = 8
	}
	if c.Work == 0 {
		c.Work = 2 * time.Millisecond
	}
	if c.HysteresisPurge == 0 {
		c.HysteresisPurge = 4
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 10 * time.Microsecond
	}
	if c.Hosts < 2 {
		return c, fmt.Errorf("workload: barrier needs at least 2 hosts")
	}
	return c, nil
}

// Barrier is Phases rounds of an N-host barrier built from stationary
// per-host pages. Its ops are the phases; its latency is the
// barrier-wait distribution: time from a host's own arrival to its
// release, one sample per host per phase.
func Barrier(c BarrierConfig) (Workload, error) {
	c, err := c.withDefaults()
	if err != nil {
		return Workload{}, err
	}
	var capRW mether.Capability
	// One histogram streamed into by every host: the simulation kernel
	// serializes processes, and histogram observation is commutative.
	t := &Tally{Ops: uint64(c.Phases), Latency: new(stats.Histogram)}
	wl := Workload{Hosts: c.Hosts, Clients: make([]Client, c.Hosts), Tally: t}
	wl.Pages, wl.Layout = ownedPages("barrier", c.Hosts, &capRW)
	// Pre-draw the per-host, per-phase work so the schedule is a pure
	// function of the seed.
	rng := rand.New(rand.NewSource(c.Seed))
	work := make([][]time.Duration, c.Hosts)
	for i := range work {
		wl.Clients[i] = Client{i, fmt.Sprintf("bsp%d", i)}
		work[i] = make([]time.Duration, c.Phases)
		for p := range work[i] {
			half := int64(c.Work) / 2
			work[i][p] = c.Work/2 + time.Duration(rng.Int63n(2*half+1))
		}
	}
	wl.Body = func(env *mether.Env, i int) error {
		return barrierClient(env, capRW, c, i, work[i], t.Latency)
	}
	return wl, nil
}

// barrierClient is one host's compute/arrive/wait loop.
func barrierClient(env *mether.Env, cap mether.Capability, cfg BarrierConfig, id int, work []time.Duration, hist *stats.Histogram) error {
	own, err := env.Attach(cap, mether.RW)
	if err != nil {
		return err
	}
	peers, err := env.Attach(cap.ReadOnly(), mether.RO)
	if err != nil {
		return err
	}
	ownAddr := own.Addr(id, 0).Short()
	// The waiter's Spin32 predicate, built once: a peer still behind is a
	// stale read, and the one that exhausts the hysteresis ends the spin.
	// stale counts them for Spin32; no report reads it.
	var want uint32
	var stale uint64
	caughtUp := func(v uint32) bool { return v >= want }
	for phase := 0; phase < cfg.Phases; phase++ {
		env.Compute(work[phase])
		want = uint32(phase + 1)
		if err := own.Store32(ownAddr, want); err != nil {
			return err
		}
		// Passive update: one broadcast refreshes every waiter's copy.
		if err := own.Purge(ownAddr); err != nil {
			return err
		}
		arrived := env.Now()
		for j := 0; j < cfg.Hosts; j++ {
			if j == id {
				continue
			}
			pa := peers.Addr(j, 0).Short()
			for {
				v, err := peers.Spin32(pa, cfg.CheckEvery, caughtUp, cfg.HysteresisPurge, &stale)
				if err != nil {
					return err
				}
				if v >= want {
					break
				}
				// Force a fresh demand fetch from the owner; unlike a
				// data-driven block this cannot miss a broadcast that
				// already transited.
				if err := peers.Purge(pa); err != nil {
					return err
				}
			}
		}
		hist.Observe(env.Now() - arrived)
	}
	return nil
}

// PipelineConfig parameterizes a producer-consumer pipeline: Stages
// hosts connected by Mether pipes, messages flowing from stage 0 through
// every stage to the sink, each stage spending stageCost per message.
type PipelineConfig struct {
	// Stages is the number of hosts in the chain (default 3, min 2).
	Stages int
	// Messages is how many messages the source produces (default 16).
	Messages int
	// Size is the payload size in bytes (default 8, the control-message
	// fast path; sizes above pipe.ShortPayload exercise full pages).
	Size int
	// Options is the cluster the run is built on.
	Options
}

func (c PipelineConfig) withDefaults() (PipelineConfig, error) {
	if c.Stages == 0 {
		c.Stages = 3
	}
	if c.Messages == 0 {
		c.Messages = 16
	}
	if c.Size == 0 {
		c.Size = 8
	}
	if c.Stages < 2 {
		return c, fmt.Errorf("workload: pipeline needs at least 2 stages")
	}
	if c.Size > pipe.MaxPayload {
		return c, fmt.Errorf("workload: pipeline message %d bytes exceeds %d", c.Size, pipe.MaxPayload)
	}
	return c, nil
}

// Pipeline is a Stages-host producer-consumer pipeline: client 0 is
// the source, the last the sink, and each stage between forwards. Its
// ops are the messages delivered; its latency is the end-to-end message
// latency (source hand-off to sink receipt).
func Pipeline(c PipelineConfig) (Workload, error) {
	c, err := c.withDefaults()
	if err != nil {
		return Workload{}, err
	}
	caps := make([]mether.Capability, c.Stages-1)
	t := &Tally{Latency: new(stats.Histogram)}
	wl := Workload{Hosts: c.Stages, Pages: max(2*(c.Stages-1), 8), Clients: make([]Client, c.Stages), Tally: t,
		Layout: func(w *mether.World) (err error) {
			for i := range caps {
				if caps[i], err = pipe.Create(w, fmt.Sprintf("stage%d", i), i, i+1); err != nil {
					return err
				}
			}
			return nil
		}}
	sink := c.Stages - 1
	wl.Clients[0], wl.Clients[sink] = Client{0, "source"}, Client{sink, "sink"}
	for s := 1; s < sink; s++ {
		wl.Clients[s] = Client{s, fmt.Sprintf("stage%d", s)}
	}
	sentAt := make([]time.Duration, c.Messages)
	payload := make([]byte, c.Size)
	for i := range payload {
		payload[i] = byte(i)
	}
	wl.Body = func(env *mether.Env, s int) error {
		var in, out *pipe.Pipe
		var err error
		if s > 0 {
			in, err = pipe.Open(env, caps[s-1], 1)
		}
		if err == nil && s < sink {
			out, err = pipe.Open(env, caps[s], 0)
		}
		if err != nil {
			return err
		}
		for m := 0; m < c.Messages; m++ {
			if s == 0 {
				env.Compute(stageCost)
				sentAt[m] = env.Now()
				if err := out.Send(uint32(m), payload); err != nil {
					return err
				}
				continue
			}
			msg, err := in.Recv()
			if err != nil {
				return err
			}
			if s < sink {
				env.Compute(stageCost)
				if err := out.Send(msg.Tag, msg.Data); err != nil {
					return err
				}
				continue
			}
			if int(msg.Tag) != m || len(msg.Data) != c.Size {
				return fmt.Errorf("workload: pipeline message %d arrived as tag %d, %d bytes", m, msg.Tag, len(msg.Data))
			}
			env.Compute(stageCost)
			t.Latency.Observe(env.Now() - sentAt[m])
			t.Ops++
		}
		return nil
	}
	return wl, nil
}
