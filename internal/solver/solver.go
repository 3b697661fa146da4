package solver

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"mether"
	"mether/pipe"
)

// Config parameterizes a distributed solve.
type Config struct {
	// N is the number of unknowns (default 100_000 — large enough that
	// computation dominates the halo exchanges, which is the regime the
	// paper's solver ran in).
	N int
	// Hosts is the number of processors (paper: 1..4).
	Hosts int
	// Sweeps is the number of Jacobi iterations (default 25).
	Sweeps int
	Seed   int64
	// Cap bounds the simulated run (default 30 minutes).
	Cap time.Duration
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 100_000
	}
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.Sweeps == 0 {
		c.Sweeps = 25
	}
	if c.Cap == 0 {
		c.Cap = 30 * time.Minute
	}
	return c
}

// flopCost is the CPU cost of one floating-point operation
// (Sun-3/50-class software floating point).
const flopCost = 3 * time.Microsecond

// Report carries one distributed solve's measurements.
type Report struct {
	Hosts     int
	N         int
	Sweeps    int
	Wall      time.Duration
	Residual  float64 // final squared residual, reduced at rank 0
	Messages  uint64  // pipe messages exchanged
	NetBytes  uint64  // wire bytes
	MaxDiff   float64 // max |x_distributed - x_sequential|
	SeqWall   time.Duration
	Speedup   float64
	Efficient float64 // Speedup / Hosts
}

// tag values for the pipe streams.
const (
	tagHaloBase = 1 << 16 // + sweep number
	tagResidual = 1
	tagGatherX  = 2
)

// RunDistributed solves the problem on cfg.Hosts simulated processors
// communicating only through csend/crecv-style pipe messages, then
// compares against the sequential reference (both for correctness and
// for the speedup figure).
func RunDistributed(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	prob := NewProblem(cfg.N, cfg.Seed)

	// Sequential reference: correctness baseline and speedup denominator.
	seqX, _ := prob.SolveSequential(cfg.Sweeps)
	seqWall := time.Duration(cfg.N) * FlopsPerRow * time.Duration(cfg.Sweeps) * flopCost

	if cfg.Hosts == 1 {
		// Degenerate case: one host, no communication.
		r := Report{
			Hosts: 1, N: cfg.N, Sweeps: cfg.Sweeps,
			Wall: seqWall, SeqWall: seqWall, Speedup: 1, Efficient: 1,
		}
		_, res := prob.SolveSequential(cfg.Sweeps)
		r.Residual = res
		return r, nil
	}

	w := mether.NewWorld(mether.Config{
		Hosts: cfg.Hosts,
		Pages: 2*cfg.Hosts + 4,
		Seed:  cfg.Seed,
	})
	defer w.Shutdown()

	// A chain of pipes: rank i talks to rank i+1 over pipe i.
	caps := make([]mether.Capability, cfg.Hosts-1)
	for i := 0; i < cfg.Hosts-1; i++ {
		c, err := pipe.Create(w, fmt.Sprintf("solver-%d", i), i, i+1)
		if err != nil {
			return Report{}, err
		}
		caps[i] = c
	}

	type rankState struct {
		x    []float64
		res  float64 // reduced residual (rank 0 only)
		err  error
		done bool
	}
	states := make([]*rankState, cfg.Hosts)
	for i := range states {
		states[i] = &rankState{}
	}

	for rank := 0; rank < cfg.Hosts; rank++ {
		rank := rank
		w.Spawn(rank, fmt.Sprintf("rank%d", rank), func(env *mether.Env) {
			states[rank].x, states[rank].res, states[rank].err = runRank(env, cfg, prob, caps, rank)
			states[rank].done = true
		})
	}
	w.RunUntil(cfg.Cap)

	rep := Report{Hosts: cfg.Hosts, N: cfg.N, Sweeps: cfg.Sweeps, SeqWall: seqWall}
	for rank, st := range states {
		if st.err != nil {
			return rep, fmt.Errorf("rank %d: %w", rank, st.err)
		}
		if !st.done {
			return rep, fmt.Errorf("rank %d did not finish within cap", rank)
		}
	}
	rep.Wall = w.Now()
	rep.Residual = states[0].res
	ns := w.NetStats()
	rep.NetBytes = ns.WireBytes
	rep.Messages = ns.Frames
	for rank, st := range states {
		lo, hi := prob.Partition(rank, cfg.Hosts)
		for i := lo; i < hi; i++ {
			if d := math.Abs(st.x[i-lo] - seqX[i]); d > rep.MaxDiff {
				rep.MaxDiff = d
			}
		}
	}
	rep.Speedup = float64(seqWall) / float64(rep.Wall)
	rep.Efficient = rep.Speedup / float64(cfg.Hosts)
	return rep, nil
}

// runRank is the SPMD body: halo exchange + local sweep per iteration,
// then a chain reduction of the residual to rank 0.
func runRank(env *mether.Env, cfg Config, prob *Problem, caps []mether.Capability, rank int) ([]float64, float64, error) {
	lo, hi := prob.Partition(rank, cfg.Hosts)
	n := hi - lo

	var left, right *pipe.Pipe
	var err error
	if rank > 0 {
		if left, err = pipe.Open(env, caps[rank-1], 1); err != nil {
			return nil, 0, fmt.Errorf("open left pipe: %w", err)
		}
	}
	if rank < cfg.Hosts-1 {
		if right, err = pipe.Open(env, caps[rank], 0); err != nil {
			return nil, 0, fmt.Errorf("open right pipe: %w", err)
		}
	}

	x := make([]float64, n)
	next := make([]float64, n)
	var haloL, haloR float64

	for s := 0; s < cfg.Sweeps; s++ {
		tag := uint32(tagHaloBase + s)
		// Exchange halos: send own boundary values, then receive the
		// neighbours'. The two directions ride independent one-way pages,
		// so symmetric send-then-receive cannot deadlock.
		if left != nil {
			if err := pipe.CSend(left, tag, f64bytes(x[0])); err != nil {
				return nil, 0, fmt.Errorf("sweep %d send left: %w", s, err)
			}
		}
		if right != nil {
			if err := pipe.CSend(right, tag, f64bytes(x[n-1])); err != nil {
				return nil, 0, fmt.Errorf("sweep %d send right: %w", s, err)
			}
		}
		if left != nil {
			data, _, err := pipe.CRecv(left, tag)
			if err != nil {
				return nil, 0, fmt.Errorf("sweep %d recv left: %w", s, err)
			}
			haloL = bytesF64(data)
		}
		if right != nil {
			data, _, err := pipe.CRecv(right, tag)
			if err != nil {
				return nil, 0, fmt.Errorf("sweep %d recv right: %w", s, err)
			}
			haloR = bytesF64(data)
		}

		// Local sweep: do the real arithmetic and charge its CPU cost.
		prob.SweepSlice(next, x, lo, hi, haloL, haloR)
		env.Compute(time.Duration(n) * FlopsPerRow * flopCost)
		x, next = next, x
	}

	// Residual chain-reduction to rank 0. Halos for the residual use the
	// final x boundary values already held from the last exchange... the
	// last sweep's halos describe x's previous iterate, so exchange once
	// more for an exact residual.
	finalTag := uint32(tagHaloBase + cfg.Sweeps)
	if left != nil {
		if err := pipe.CSend(left, finalTag, f64bytes(x[0])); err != nil {
			return nil, 0, err
		}
	}
	if right != nil {
		if err := pipe.CSend(right, finalTag, f64bytes(x[n-1])); err != nil {
			return nil, 0, err
		}
	}
	if left != nil {
		data, _, err := pipe.CRecv(left, finalTag)
		if err != nil {
			return nil, 0, err
		}
		haloL = bytesF64(data)
	}
	if right != nil {
		data, _, err := pipe.CRecv(right, finalTag)
		if err != nil {
			return nil, 0, err
		}
		haloR = bytesF64(data)
	}
	res := prob.ResidualSlice(x, lo, hi, haloL, haloR)
	env.Compute(time.Duration(n) * 6 * flopCost)

	// Ranks pass partial sums right-to-left.
	if right != nil {
		data, _, err := pipe.CRecv(right, tagResidual)
		if err != nil {
			return nil, 0, fmt.Errorf("residual recv: %w", err)
		}
		res += bytesF64(data)
	}
	if left != nil {
		if err := pipe.CSend(left, tagResidual, f64bytes(res)); err != nil {
			return nil, 0, fmt.Errorf("residual send: %w", err)
		}
	}
	return x, res, nil
}

func f64bytes(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func bytesF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
