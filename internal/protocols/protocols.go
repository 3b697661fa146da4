// Package protocols implements the paper's Section-4 protocol study as
// workloads for the one runner, workload.Options.Run: the cooperative
// "count to 1024" synchronization microbenchmark under each of the user
// protocols the paper measures (Figures 4-9) plus the two local
// baselines the text reports (Counter), and the one-writer/N-reader
// broadcast-scaling run (Fanout). A counter run's workload.Report has
// the paper's figure rows: wall-clock time, host 0's user and system
// time (Host0), network load, context switches per addition (CtxPerOp),
// average fault latency and the losses/wins ratio (LossWin); the space
// row is Protocol.Pages.
package protocols

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mether/internal/workload"
)

// Protocol selects which user protocol drives the counter.
type Protocol int

const (
	// BaselineSingle is one process counting alone (paper: ~50 ms).
	BaselineSingle Protocol = iota + 1
	// BaselineLocalPair is two processes sharing a local page on one
	// host (paper: 81 s wall, 37 s CPU — quantum thrashing).
	BaselineLocalPair
	// P1FullPage: both processes increment the first word of one shared
	// writable full page; every fault moves 8 KiB (Figure 4).
	P1FullPage
	// P2ShortPage: the same through the short view; faults move 32 bytes
	// (Figure 5).
	P2ShortPage
	// P3DisjointRO: disjoint pages, write capability stationary, readers
	// spin on a read-only copy waiting for snoopy refresh — which their
	// own spinning starves. The degenerate protocol of Figure 6.
	P3DisjointRO
	// P3Hysteresis: P3 with a purge only every HysteresisN losses
	// (Figure 7).
	P3Hysteresis
	// P4DataDriven: one page; writers demand-fetch the consistent short
	// view, waiters sample the data-driven view — which is resident
	// whenever the consistent copy is local, so the process spins
	// (Figure 8).
	P4DataDriven
	// P5Final: disjoint pages; each process writes its own stationary
	// page and blocks data-driven on the peer's. One packet per
	// increment (Figure 9).
	P5Final
)

// String returns the protocol mnemonic used in reports.
func (p Protocol) String() string {
	switch p {
	case BaselineSingle:
		return "baseline-single"
	case BaselineLocalPair:
		return "baseline-local-pair"
	case P1FullPage:
		return "P1-full-page"
	case P2ShortPage:
		return "P2-short-page"
	case P3DisjointRO:
		return "P3-disjoint-ro"
	case P3Hysteresis:
		return "P3-hysteresis"
	case P4DataDriven:
		return "P4-data-driven"
	case P5Final:
		return "P5-final"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Pages is how many pages the protocol's counter occupies (the figures'
// Space row): the disjoint protocols give each process its own, the
// rest share one.
func (p Protocol) Pages() int {
	switch p {
	case P3DisjointRO, P3Hysteresis, P5Final:
		return 2
	}
	return 1
}

const (
	// spinBeforeBlock is how many losses P5 tolerates on the resident
	// copy before purging and blocking data-driven.
	spinBeforeBlock = 2
	// checkCost and incCost are the application's per-check and
	// per-increment CPU costs (the paper's measured per-iteration cost).
	checkCost = 50 * time.Microsecond
	incCost   = 50 * time.Microsecond
)

// Config parameterizes one counter run.
type Config struct {
	Protocol Protocol
	// Target is the value counted to (paper: 1024).
	Target uint32
	// HysteresisN is the purge period for P3Hysteresis (losses between
	// purges; 1 makes it equivalent to P3DisjointRO).
	HysteresisN int
	// SleepHysteresis, when nonzero, replaces the purge-based hysteresis
	// with a fixed delay after each loss — the paper's first (rejected)
	// fix ("it was difficult to get consistent timing delays").
	SleepHysteresis time.Duration

	// Options is the two-host cluster the run is built on: seed, cap (a
	// run that does not finish reports DNF like the paper's "Never
	// finished" row), medium, loss, server placement and the rest of the
	// shared axes. With Trunks 2 the counting peers sit on opposite
	// trunks, so every packet pays the bridge's store-and-forward hop.
	workload.Options
}

// Target checks a counter target given on a command line, before anything
// runs: the counter is 32 bits wide, and a zero Target runs as the default.
func Target(v uint) (uint32, error) {
	if v == 0 || v > math.MaxUint32 {
		return 0, fmt.Errorf("-target %d out of range (1..%d)", v, uint32(math.MaxUint32))
	}
	return uint32(v), nil
}

// Positive checks a seed given on a command line as -name, before
// anything runs: a zero seed runs as the default, so such a flag takes
// only positive values.
func Positive(name string, v int64) error {
	if v <= 0 {
		return fmt.Errorf("-%s %v must be positive", name, v)
	}
	return nil
}

func (c Config) withDefaults() (Config, error) {
	if err := errors.Join(workload.NonNegative("HysteresisN", c.HysteresisN),
		workload.NonNegative("SleepHysteresis", c.SleepHysteresis)); err != nil {
		return c, fmt.Errorf("protocols: counter %w", err)
	}
	if c.Protocol < BaselineSingle || c.Protocol > P5Final {
		return c, fmt.Errorf("protocols: unknown protocol %d", c.Protocol)
	}
	if c.Target == 0 {
		c.Target = 1024
	}
	if c.HysteresisN == 0 {
		c.HysteresisN = 100
	}
	return c, nil
}
