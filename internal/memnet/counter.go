package memnet

import (
	"fmt"
	"time"

	"mether/internal/sim"
	"mether/internal/stats"
)

// Shape is a counter-protocol shape, mirroring the Mether study's
// protocols so the cross-system comparison is like for like.
type Shape int

const (
	// SharedChunk mirrors protocol 1/2: both processes increment one
	// chunk; waiting means repeatedly fetching it over the ring.
	SharedChunk Shape = iota + 1
	// DisjointSpin mirrors protocol 3: stationary writers, readers poll
	// the peer's chunk — every poll is a ring transaction (MemNet does
	// not cache remote chunks).
	DisjointSpin
	// DisjointBlocked mirrors the final protocol: stationary writers,
	// readers block until the peer's modification circulates the ring.
	DisjointBlocked
)

func (s Shape) String() string {
	switch s {
	case SharedChunk:
		return "M1-shared-chunk"
	case DisjointSpin:
		return "M3-disjoint-spin"
	case DisjointBlocked:
		return "M5-disjoint-blocked"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Report carries the measured rows for one MemNet counter run.
type Report struct {
	Shape     Shape
	Target    uint32
	Additions uint32
	DNF       bool
	Wall      time.Duration
	Fetches   uint64
	RingBytes uint64
	Util      float64
	Losses    uint64
	Wins      uint64
	LossWin   float64
}

// Config parameterizes a MemNet counter run: two hosts of the
// MemNet-prototype model (DefaultParams), for at most 60 s of virtual
// time.
type Config struct {
	Shape  Shape
	Target uint32
	Seed   int64
}

// workTime is computation performed after each increment. On
// microsecond-latency hardware two bare counter loops self-synchronize
// perfectly, so some think time is needed to expose the cost of polling
// — this mirrors the producer/consumer setting of the MemNet protocol
// analysis the paper cites.
const workTime = 100 * time.Microsecond

// RunCounter executes the cooperative counter on MemNet hardware.
func RunCounter(cfg Config) (Report, error) {
	if cfg.Target == 0 {
		cfg.Target = 1024
	}
	k := sim.New(cfg.Seed)
	defer k.Shutdown()
	r := New(k, DefaultParams(2))

	switch cfg.Shape {
	case SharedChunk:
		r.Create(0, 0)
	case DisjointSpin, DisjointBlocked:
		r.Create(0, 0)
		r.Create(1, 1)
	default:
		return Report{}, fmt.Errorf("memnet: unknown shape %d", cfg.Shape)
	}

	sts := [2]*counterState{{}, {}}
	for i := 0; i < 2; i++ {
		i := i
		r.Spawn(i, fmt.Sprintf("mn%d", i), func(p *Proc) {
			runShape(p, cfg, r.p, uint32(i), sts[i])
		})
	}
	k.RunUntil(60 * time.Second)

	rep := Report{Shape: cfg.Shape, Target: cfg.Target}
	var wall time.Duration
	finished := true
	for _, st := range sts {
		rep.Wins += st.wins
		rep.Losses += st.losses
		if !st.done {
			finished = false
		}
		if st.finish > wall {
			wall = st.finish
		}
	}
	rep.DNF = !finished
	if rep.DNF {
		wall = k.Now()
	}
	rep.Wall = wall
	rep.Additions = uint32(rep.Wins)
	rep.LossWin = stats.Ratio(rep.Losses, rep.Wins)
	rep.Fetches = r.Stats().Fetches
	rep.RingBytes = r.Stats().RingBytes
	rep.Util = r.Utilization(wall)
	return rep, nil
}

// counterState tracks one MemNet client's protocol counters.
type counterState struct {
	wins, losses uint64
	done         bool
	finish       time.Duration
}

func runShape(p *Proc, cfg Config, hw Params, id uint32, st *counterState) {
	switch cfg.Shape {
	case SharedChunk:
		for {
			p.Compute(hw.CheckCost)
			v := p.Load32(0, 0)
			if v >= cfg.Target {
				break
			}
			if v%2 == id {
				// Produce (think time), then publish the increment.
				p.Compute(workTime)
				p.Compute(hw.IncCost)
				p.Store32(0, 0, v+1)
				st.wins++
				if v+1 >= cfg.Target {
					break
				}
			} else {
				st.losses++
			}
		}
	case DisjointSpin, DisjointBlocked:
		own, peer := ChunkID(id), ChunkID(1-id)
		myVal := uint32(0)
		for {
			p.Compute(hw.CheckCost)
			v := p.Load32(peer, 0)
			switch {
			case v >= cfg.Target || myVal >= cfg.Target:
			case v%2 == id && v+1 > myVal:
				// Produce (think time), then publish the increment.
				p.Compute(workTime)
				p.Compute(hw.IncCost)
				myVal = v + 1
				p.Store32(own, 0, myVal)
				st.wins++
				continue
			default:
				st.losses++
				if cfg.Shape == DisjointBlocked {
					p.WaitUpdate(peer)
				}
				continue
			}
			break
		}
	}
	st.done = true
	st.finish = p.Now()
}
