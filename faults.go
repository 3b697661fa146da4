package mether

import (
	"fmt"

	"mether/internal/ethernet"
	"mether/internal/fault"
	"mether/internal/vm"
)

// This file executes internal/fault schedules against a World: host
// crash and recovery and bridge partition and heal become first-class
// kernel events installed before the run starts.
// The schedule is pure data and every event runs at its virtual time
// under the seeded kernel, so a faulted run is byte-identical across
// runs and sweep worker counts — and an empty schedule is a provable
// no-op (InjectFaults installs nothing).

// FaultSchedule aliases the internal schedule type so callers outside
// this module can build schedules (the alias makes the internal type
// nameable; its chainable builders work through it) without importing
// an internal package.
type FaultSchedule = fault.Schedule

// InjectFaults validates the schedule against this world's shape and
// installs its events on the kernel. Call before Run; the events fire
// at their virtual times in schedule order (ties keep listed order).
func (w *World) InjectFaults(s FaultSchedule) error {
	if s.Empty() {
		return nil
	}
	if err := s.Validate(len(w.hosts), len(w.bridges())); err != nil {
		return err
	}
	for _, e := range s.Sorted() {
		ev := e
		w.k.AfterCoalesced(ev.At-w.k.Now(), "fault "+ev.Kind.String(), func() { w.applyFault(ev) })
	}
	return nil
}

func (w *World) applyFault(e fault.Event) {
	switch e.Kind {
	case fault.Crash:
		w.CrashHost(e.Host)
	case fault.Recover:
		w.RecoverHost(e.Host)
	// InjectFaults validated the bridge numbers, so these cannot fail.
	case fault.Partition:
		_ = w.PartitionBridge(e.Bridge)
	case fault.Heal:
		_ = w.HealBridge(e.Bridge)
	}
}

// CrashHost crashes a host now: NIC down, driver state lost, client
// processes left to re-fault (core.Driver.Crash). Idempotent while
// down.
func (w *World) CrashHost(hostIdx int) { w.drivers[hostIdx].Crash() }

// RecoverHost brings a crashed host back; it re-joins cold through the
// lazy directory attach path. A no-op if the host is up.
func (w *World) RecoverHost(hostIdx int) { w.drivers[hostIdx].Recover() }

// bridges returns the world's bridges: none on a single trunk or a
// fabric.
func (w *World) bridges() []*ethernet.Bridge {
	if w.topo == nil {
		return nil
	}
	return w.topo.Bridges()
}

// PartitionBridge takes one of the topology's bridges down, splitting
// the extended LAN; buffered and in-flight bridge frames are dropped
// (BridgeStats.PartitionDrops), never replayed after a heal. It returns
// an error for a bridge the world does not have.
func (w *World) PartitionBridge(bridge int) error { return w.setPartitioned(bridge, true) }

// HealBridge brings a partitioned bridge back up.
func (w *World) HealBridge(bridge int) error { return w.setPartitioned(bridge, false) }

func (w *World) setPartitioned(bridge int, down bool) error {
	brs := w.bridges()
	if bridge < 0 || bridge >= len(brs) {
		return fmt.Errorf("mether: bridge %d out of range (world has %d)", bridge, len(brs))
	}
	brs[bridge].SetPartitioned(down)
	return nil
}

// OrphanedPages counts created pages that currently have no consistent
// copy anywhere in the cluster — authority lost to a crash and not (or
// not yet) re-claimed. The walk peeks materialized state only, so it
// never perturbs the directories it inspects. Fault workloads assert
// this returns zero at end of run: every crashed owner's pages must
// have been re-claimed.
func (w *World) OrphanedPages() int {
	orphans := 0
	for pg := 0; pg < int(w.nextPage); pg++ {
		owned := false
		for _, d := range w.drivers {
			if d.OwnsPage(vm.PageID(pg)) {
				owned = true
				break
			}
		}
		if !owned {
			orphans++
		}
	}
	return orphans
}
