package core

import "time"

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
//
// It is the user-level server's loop under another charging policy, not
// a second server. Driver.advance (server.go) hands back one cost per
// charge point; the user-level server, a host task, gives each to the
// host scheduler at the instant it falls due, while kernelStep adds up
// one item's costs, does the item in one event and holds the next item
// back by the sum. That is also why handlers take no CPU sink to charge:
// a sink that is a process blocks in mid-handler, and a task has no
// stack to block on, so handlers charge nothing and leave a send's cost,
// and what they do once it is sent, to the loop.

// kernelKick schedules a drain step if one is not already pending. Work
// items are processed one per step; each step is delayed by the previous
// item's accumulated handler cost, serializing the kernel path the way
// interrupt-level processing serializes on a uniprocessor. Kicks are
// coalesced like NIC interrupts: a broadcast delivery kicking every
// kernel-server host schedules one kernel event, not one per host; so
// are the drain steps, whenever hosts that handled equal items in one
// event reschedule back to back at one deadline.
func (d *Driver) kernelKick(after time.Duration) {
	if d.kDraining {
		return
	}
	d.kDraining = true
	d.h.Kernel().AfterCoalesced(after, "mether kernel drain", d.stepFn)
}

// kernelStep processes one pending item and reschedules itself.
func (d *Driver) kernelStep() {
	used, ok := d.advance()
	if !ok {
		d.kDraining = false
		return
	}
	for d.server.phase != phaseIdle {
		cost, _ := d.advance()
		used += cost
	}
	d.m.KernelTime += used
	d.h.Kernel().AfterCoalesced(used, "mether kernel next", d.stepFn)
}
