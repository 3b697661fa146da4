package core

import (
	"time"

	"mether/internal/host"
)

// Kernel-server mode implements the paper's stated future work: "At this
// point we have hit a threshold in which the major bottleneck is now the
// context switches required to receive a new page. That problem will be
// solved by a different hardware-based network or a migration of the
// user level server code to the kernel."
//
// With Config.KernelServer set, protocol processing runs at interrupt
// level instead of inside a schedulable process: no dispatch latency, no
// quantum waits behind spinning clients, no context switches to receive
// a page. Handler CPU costs still apply — they serialize a kernel work
// cursor and are accounted in Metrics.KernelTime — but they no longer
// contend with application processes for the CPU. The ablation benches
// (BenchmarkAblationKernelServer) quantify how much of the figures'
// latency this removes.

// kernelWorker satisfies the handlers' CPU-charging interface by
// accumulating cost instead of consuming scheduled CPU time.
type kernelWorker struct {
	used time.Duration
}

func (k *kernelWorker) UseSys(d time.Duration) { k.used += d }

// cpuSink abstracts "who pays for server work": a schedulable process
// (user-level server) or the kernel cursor (kernel server).
type cpuSink interface {
	UseSys(d time.Duration)
}

var (
	_ cpuSink = (*host.Proc)(nil)
	_ cpuSink = (*kernelWorker)(nil)
)

// kernelKick schedules a drain step if one is not already pending. Work
// items are processed one per step; each step is delayed by the previous
// item's accumulated handler cost, serializing the kernel path the way
// interrupt-level processing serializes on a uniprocessor. Kicks are
// coalesced like NIC interrupts: a broadcast delivery kicking every
// kernel-server host schedules one kernel event, not one per host (the
// drain steps themselves stay individually scheduled, as their delays
// depend on per-host handler cost).
func (d *Driver) kernelKick(after time.Duration) {
	if d.kDraining {
		return
	}
	d.kDraining = true
	d.h.Kernel().AfterCoalesced(after, "mether kernel drain", d.stepFn)
}

// kernelStep processes one pending item and reschedules itself.
func (d *Driver) kernelStep() {
	var kw kernelWorker
	if d.drain(&kw, 1) == 0 {
		d.kDraining = false
		return
	}
	d.m.KernelTime += kw.used
	d.h.Kernel().After(kw.used, "mether kernel next", d.stepFn)
}
