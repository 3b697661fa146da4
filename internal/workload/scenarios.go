// Scenario workloads beyond the single-pipe throughput run: the hotspot,
// barrier-phase and producer-consumer-pipeline patterns the sweep engine
// measures across its parameter grids. Each is a self-contained World
// run returning a report of virtual-time metrics only, so a fixed seed
// always yields an identical report regardless of the real scheduler.
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

// HotspotReport is the hotspot run's measurements.
type HotspotReport struct {
	Hosts   int
	Iters   int
	Short   bool
	Updates uint64 // total updates completed
	DNF     bool
	ClusterStats
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

// RunHotspot measures N hosts contending for one shared writable page.
func RunHotspot(cfg HotspotConfig) (HotspotReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return HotspotReport{}, err
	}
	var seg *mether.Segment
	w, err := cfg.World(cfg.Hosts, 8, func(w *mether.World) (err error) {
		seg, err = w.CreateSegmentOnTrunk("hotspot", 1, cfg.OwnerTrunk)
		return err
	})
	if err != nil {
		return HotspotReport{}, err
	}
	defer w.Shutdown()
	capRW := seg.CapRW()

	done := make([]bool, cfg.Writers)
	errs := make([]error, cfg.Writers)
	var updates uint64
	var lastFinish time.Duration
	for i := 0; i < cfg.Writers; i++ {
		i := i
		w.Spawn(i, fmt.Sprintf("hot%d", i), func(env *mether.Env) {
			m, err := env.Attach(capRW, mether.RW)
			if err != nil {
				errs[i] = err
				return
			}
			a := m.Addr(0, 4*i)
			if cfg.ShortPage {
				a = a.Short()
			}
			for n := 0; n < cfg.Iters; n++ {
				env.Compute(incCost)
				v, err := m.Load32(a)
				if err != nil {
					errs[i] = err
					return
				}
				if err := m.Store32(a, v+1); err != nil {
					errs[i] = err
					return
				}
				updates++
			}
			done[i] = true
			if t := env.Now(); t > lastFinish {
				lastFinish = t
			}
		})
	}
	cs, dnf, err := cfg.finish(w, errs, done, &lastFinish)
	return HotspotReport{Hosts: cfg.Hosts, Iters: cfg.Iters, Short: cfg.ShortPage,
		Updates: updates, DNF: dnf, ClusterStats: cs}, err
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

// BarrierReport is the barrier run's measurements. The latency fields of
// ClusterStats hold the barrier-wait distribution: time from a host's
// own arrival to its release, one sample per host per phase.
type BarrierReport struct {
	Hosts  int
	Phases int
	DNF    bool
	ClusterStats
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

// RunBarrier measures Phases rounds of an N-host barrier built from
// stationary per-host pages.
func RunBarrier(cfg BarrierConfig) (BarrierReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return BarrierReport{}, err
	}
	w, seg, err := cfg.ownedPages("barrier", cfg.Hosts)
	if err != nil {
		return BarrierReport{}, err
	}
	defer w.Shutdown()
	capRW := seg.CapRW()

	// Pre-draw the per-host, per-phase work so the schedule is a pure
	// function of the seed.
	rng := rand.New(rand.NewSource(cfg.Seed))
	work := make([][]time.Duration, cfg.Hosts)
	for i := range work {
		work[i] = make([]time.Duration, cfg.Phases)
		for p := range work[i] {
			half := int64(cfg.Work) / 2
			work[i][p] = cfg.Work/2 + time.Duration(rng.Int63n(2*half+1))
		}
	}

	done := make([]bool, cfg.Hosts)
	errs := make([]error, cfg.Hosts)
	// One histogram streamed into by every host: the simulation kernel
	// serializes processes, and histogram observation is commutative, so
	// the shared instance ends bit-identical to the former per-host
	// slice-then-merge — without retaining hosts × histogram copies for
	// the length of the run.
	var waitHist stats.Histogram
	var lastFinish time.Duration
	for i := 0; i < cfg.Hosts; i++ {
		i := i
		w.Spawn(i, fmt.Sprintf("bsp%d", i), func(env *mether.Env) {
			errs[i] = barrierClient(env, capRW, cfg, i, work[i], &waitHist)
			if errs[i] == nil {
				done[i] = true
				if t := env.Now(); t > lastFinish {
					lastFinish = t
				}
			}
		})
	}
	cs, dnf, err := cfg.finish(w, errs, done, &lastFinish)
	cs.SetLatency(&waitHist)
	return BarrierReport{Hosts: cfg.Hosts, Phases: cfg.Phases, DNF: dnf, ClusterStats: cs}, err
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
	var want uint32
	stale := 0
	behind := func(v uint32) bool {
		if v >= want {
			return false
		}
		stale++
		return stale < cfg.HysteresisPurge
	}
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
			stale = 0
			for {
				v, err := peers.Spin32(pa, cfg.CheckEvery, behind)
				if err != nil {
					return err
				}
				if v >= want {
					break
				}
				stale = 0
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

// PipelineReport is the pipeline run's measurements. The latency fields
// of ClusterStats hold the end-to-end message latency distribution
// (source hand-off to sink receipt).
type PipelineReport struct {
	Stages     int
	Messages   int
	Size       int
	Delivered  int
	DNF        bool
	MsgsPerSec float64
	ClusterStats
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

// RunPipeline measures a Stages-host producer-consumer pipeline.
func RunPipeline(cfg PipelineConfig) (PipelineReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return PipelineReport{}, err
	}
	pages := 2 * (cfg.Stages - 1)
	if pages < 8 {
		pages = 8
	}
	caps := make([]mether.Capability, cfg.Stages-1)
	w, err := cfg.World(cfg.Stages, pages, func(w *mether.World) (err error) {
		for i := range caps {
			if caps[i], err = pipe.Create(w, fmt.Sprintf("stage%d", i), i, i+1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return PipelineReport{}, err
	}
	defer w.Shutdown()

	errs := make([]error, cfg.Stages)
	sentAt := make([]time.Duration, cfg.Messages)
	var lat stats.Histogram
	delivered := 0
	done := make([]bool, 1) // the sink received every message
	var lastFinish time.Duration
	payload := make([]byte, cfg.Size)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Source.
	w.Spawn(0, "source", func(env *mether.Env) {
		p, err := pipe.Open(env, caps[0], 0)
		if err != nil {
			errs[0] = err
			return
		}
		for m := 0; m < cfg.Messages; m++ {
			env.Compute(stageCost)
			sentAt[m] = env.Now()
			if err := p.Send(uint32(m), payload); err != nil {
				errs[0] = err
				return
			}
		}
	})
	// Interior stages forward.
	for s := 1; s < cfg.Stages-1; s++ {
		s := s
		w.Spawn(s, fmt.Sprintf("stage%d", s), func(env *mether.Env) {
			in, err := pipe.Open(env, caps[s-1], 1)
			if err != nil {
				errs[s] = err
				return
			}
			out, err := pipe.Open(env, caps[s], 0)
			if err != nil {
				errs[s] = err
				return
			}
			for m := 0; m < cfg.Messages; m++ {
				msg, err := in.Recv()
				if err != nil {
					errs[s] = err
					return
				}
				env.Compute(stageCost)
				if err := out.Send(msg.Tag, msg.Data); err != nil {
					errs[s] = err
					return
				}
			}
		})
	}
	// Sink.
	sink := cfg.Stages - 1
	w.Spawn(sink, "sink", func(env *mether.Env) {
		p, err := pipe.Open(env, caps[sink-1], 1)
		if err != nil {
			errs[sink] = err
			return
		}
		for m := 0; m < cfg.Messages; m++ {
			msg, err := p.Recv()
			if err != nil {
				errs[sink] = err
				return
			}
			if int(msg.Tag) != m || len(msg.Data) != cfg.Size {
				errs[sink] = fmt.Errorf("workload: pipeline message %d arrived as tag %d, %d bytes", m, msg.Tag, len(msg.Data))
				return
			}
			env.Compute(stageCost)
			lat.Observe(env.Now() - sentAt[m])
			delivered++
			lastFinish = env.Now()
		}
		done[0] = true
	})

	cs, dnf, err := cfg.finish(w, errs, done, &lastFinish)
	cs.SetLatency(&lat)
	return PipelineReport{Stages: cfg.Stages, Messages: cfg.Messages, Size: cfg.Size, Delivered: delivered,
		DNF: dnf, MsgsPerSec: stats.Rate(uint64(delivered), cs.Wall), ClusterStats: cs}, err
}
