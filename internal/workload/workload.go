// Package workload is the one runner every scenario kind runs through.
// Options declares the cluster a run is built on, a Workload is one
// kind of run — its world's size and segment layout, its clients, what
// they count — and Options.Run builds the world, runs the clients to
// the cap and reports through World.Harvest plus the host load every
// kind shares. The kinds defined here are the single pipe (over the
// Mether pipe library, with the message-size mixes the paper's
// applications exhibit: fixed control messages and the bimodal
// control-plus-bulk pattern), hot-page contention, barrier phases, the
// producer-consumer pipeline and the stationary-owner counter;
// internal/protocols defines the paper's counter and the fanout.
package workload

import (
	"fmt"
	"math/rand"

	"mether"
	"mether/pipe"
)

// NonNegative is the error of a count or duration that is negative,
// naming its field: zero runs the default, and a negative value would
// panic a slice made to its length, wrap an op count or end a run before
// it starts. Every kind's config checks its own with it, and a sweep
// cell its fields under their names.
func NonNegative[T ~int | ~int64](field string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s %v is negative", field, v)
	}
	return nil
}

// SizeDist draws message sizes.
type SizeDist interface {
	// Next returns the next message size in bytes.
	Next(rng *rand.Rand) int
	// Name labels the distribution in reports.
	Name() string
}

// Fixed always returns Size.
type Fixed struct{ Size int }

// Next implements SizeDist.
func (f Fixed) Next(*rand.Rand) int { return f.Size }

// Name implements SizeDist.
func (f Fixed) Name() string { return fmt.Sprintf("fixed-%dB", f.Size) }

// Bimodal models the control+bulk mix: mostly small control messages
// (short-page fast path) with occasional bulk transfers.
type Bimodal struct {
	Small, Large int
	// LargeEvery is the period of bulk messages (every Nth message).
	LargeEvery int
}

// Next implements SizeDist.
func (b Bimodal) Next(rng *rand.Rand) int {
	if b.LargeEvery > 0 && rng.Intn(b.LargeEvery) == 0 {
		return b.Large
	}
	return b.Small
}

// Name implements SizeDist.
func (b Bimodal) Name() string {
	return fmt.Sprintf("bimodal-%dB/%dB-every%d", b.Small, b.Large, b.LargeEvery)
}

// PipeConfig describes one pipe-throughput run.
type PipeConfig struct {
	Dist     SizeDist
	Messages int
	// Options is the two-host cluster the pipe runs on.
	Options
}

// Pipe streams Messages messages of Dist-drawn sizes (clamped to the
// pipe's payload) from host 0 to host 1 through one pipe; the receiver
// checks every size. Its ops are the messages.
func Pipe(c PipeConfig) (Workload, error) {
	if err := NonNegative("Messages", c.Messages); err != nil {
		return Workload{}, fmt.Errorf("workload: pipe %w", err)
	}
	if c.Dist == nil || c.Messages == 0 {
		return Workload{}, fmt.Errorf("workload: need a distribution and messages")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	sizes := make([]int, c.Messages)
	for i := range sizes {
		if sizes[i] = min(c.Dist.Next(rng), pipe.MaxPayload); sizes[i] < 0 {
			return Workload{}, fmt.Errorf("workload: Dist %s drew %d bytes", c.Dist.Name(), sizes[i])
		}
	}
	var cap mether.Capability
	return Workload{Hosts: 2, Pages: 8, Tally: &Tally{Ops: uint64(c.Messages)},
		Layout: func(w *mether.World) (err error) {
			cap, err = pipe.Create(w, "load", 0, 1)
			return err
		},
		Clients: []Client{{0, "tx"}, {1, "rx"}},
		Body: func(env *mether.Env, side int) error {
			p, err := pipe.Open(env, cap, side)
			if err != nil {
				return err
			}
			if side == 0 {
				buf := make([]byte, pipe.MaxPayload)
				for i, s := range sizes {
					if err := p.Send(uint32(i), buf[:s]); err != nil {
						return err
					}
				}
				return nil
			}
			for i, s := range sizes {
				m, err := p.Recv()
				if err != nil {
					return err
				}
				if len(m.Data) != s {
					return fmt.Errorf("workload: message %d has %d bytes, want %d", i, len(m.Data), s)
				}
			}
			return nil
		},
	}, nil
}
