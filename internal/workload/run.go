package workload

import (
	"fmt"
	"time"

	"mether"
	"mether/internal/stats"
)

// A Workload is one kind of run, ready for Options.Run: the world it
// needs, the segments it lays out on that world, the clients it spawns
// and what they count. Every scenario kind — the counter and fanout of
// internal/protocols, and the pipe, hotspot, barrier, pipeline and
// stationary kinds here — is a function from its config to a Workload.
type Workload struct {
	// Hosts and Pages size the world; Layout creates the segments on it
	// (see Options.World).
	Hosts, Pages int
	Layout       func(*mether.World) error
	// Clients are the processes the run spawns: client i runs
	// Body(env, i) on host Clients[i].Host. One body serves every client,
	// so a client costs the run one closure and its name.
	Clients []Client
	Body    func(env *mether.Env, client int) error
	// Tally is where the clients count; it reaches the Report as it
	// stands when the run ends.
	Tally *Tally
}

// Client is where one of a workload's processes runs and its name.
type Client struct {
	Host int
	Name string
}

// Tally is what a workload's clients count as they run, beyond what the
// world counts.
type Tally struct {
	// Ops is the run's op count in the kind's own unit: increments won,
	// updates, messages, barrier phases.
	Ops     uint64
	Losses  uint64 // counter: looks that found the word the peer's to increment
	Samples uint64 // stationary: neighbour samples taken
	Missed  uint64 // fanout: updates a reader never saw
	// Latency, when set, is the kind's own latency distribution (barrier
	// waits, pipeline deliveries), which the report carries instead of
	// the drivers' fault latency.
	Latency *stats.Histogram
}

// Report is what one run measured: the world's harvest, the clients'
// tally, and the host load the runner reads off every host.
type Report struct {
	mether.Harvest
	Tally
	// DNF is set when some client had not returned by the cap; the
	// harvest is then taken at the cap instead of the last return.
	DNF bool
	// Hosts is the world's host count.
	Hosts int
	// Host0 is host 0's CPU, the host the counter's figure rows report
	// (its runs are symmetric) and the fanout's writer; All sums every
	// host, and its Server includes interrupt-level KernelTime.
	Host0, All CPU
	// Orphaned is the end-of-run count of pages with no consistent copy
	// anywhere, measured only when a fault schedule ran. A
	// crash-and-recover cell must end with zero: every authority lost to
	// a crash has been re-claimed.
	Orphaned int
}

// CPU is host load: the client processes' user and system time, and
// the Mether server's CPU.
type CPU struct {
	User, Sys, Server time.Duration
}

// System is the figures' "Sys Time": client system time plus the
// server's work on the clients' behalf (in real Mether most of it ran
// in kernel context charged to the client).
func (c CPU) System() time.Duration { return c.Sys + c.Server }

// Total is every process's CPU.
func (c CPU) Total() time.Duration { return c.User + c.System() }

// LossWin is the paper's Losses/Wins row: losses per op.
func (r Report) LossWin() float64 { return stats.Ratio(r.Losses, r.Ops) }

// CtxPerOp is context switches per op (the figures' per addition).
func (r Report) CtxPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.CtxSwitches) / float64(r.Ops)
}

// Run builds the workload's world (Options.World), spawns its clients,
// runs to the cap and reports. A client's error fails the run: the
// first in client order is returned. So does a world that ends the run
// breaking the DSM invariants (World.CheckInvariants: two consistent
// copies of a page, an owner without its bytes). Otherwise a client that
// never returned makes the run DNF.
func (o Options) Run(wl Workload) (Report, error) {
	r, w, err := o.RunOpen(wl)
	if w != nil {
		w.Shutdown()
	}
	return r, err
}

// RunOpen is Run handing back the finished world still open (nil if it
// was never built), so a caller can hold the report against the world's
// own accessors. The caller shuts the world down.
func (o Options) RunOpen(wl Workload) (r Report, w *mether.World, err error) {
	w, err = o.World(wl.Hosts, wl.Pages, wl.Layout)
	if err != nil {
		return r, nil, err
	}
	body, errs := wl.Body, make([]error, len(wl.Clients))
	returned, last := 0, time.Duration(0)
	for i, c := range wl.Clients {
		i := i
		w.Spawn(c.Host, c.Name, func(env *mether.Env) {
			if errs[i] = body(env, i); errs[i] == nil {
				returned++
				last = max(last, env.Now())
			}
		})
	}
	quiet := w.RunUntil(o.RunCap())
	for _, err := range errs {
		if err != nil {
			return r, w, err
		}
	}
	if err := w.CheckInvariants(); err != nil {
		return r, w, fmt.Errorf("invariants at end of run: %w", err)
	}
	if r.DNF = returned < len(wl.Clients); r.DNF {
		last = quiet
	}
	r.Harvest = w.Harvest(last)
	if wl.Tally != nil {
		r.Tally = *wl.Tally
	}
	if r.Latency != nil {
		r.SetLatency(r.Latency)
	}
	r.Hosts = w.NumHosts()
	r.All.Server = r.Driver.KernelTime
	for i := 0; i < r.Hosts; i++ {
		// The server is identified by process, not by name: a client may
		// be spawned under any name (nil in kernel-server mode matches
		// nothing).
		server := w.Driver(i).Server()
		var c CPU
		for _, p := range w.HostMachine(i).Procs() {
			if p == server {
				c.Server += p.User() + p.Sys()
			} else {
				c.User += p.User()
				c.Sys += p.Sys()
			}
		}
		if i == 0 {
			r.Host0 = c
		}
		r.All.User += c.User
		r.All.Sys += c.Sys
		r.All.Server += c.Server
	}
	if !o.Faults.Empty() {
		r.Orphaned = w.OrphanedPages()
	}
	return r, w, nil
}
