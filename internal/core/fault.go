package core

import (
	"time"

	"mether/internal/proto"
	"mether/internal/vm"
)

// This file is the driver's side of the fault-injection plane
// (internal/fault schedules, executed by the world layer): crash and
// recovery. Crash models a power failure — the NIC goes down and every
// byte of driver state is lost — while client processes keep their
// mappings and simply re-fault. All of it runs at virtual time under
// the simulation kernel, so a faulted run is exactly as deterministic
// as a healthy one.

// Crash takes the host off the wire and wipes the driver's protocol
// state in place. "In place" matters: client processes sleep holding
// *pageState pointers, so every materialized entry is reset where it
// lives, never reallocated. Authority held here (owner/restOwner) is
// simply lost — that is the point: the cluster must detect the orphaned
// pages and re-claim them (Config.ClaimRetries). Client-side
// bookkeeping (mappings, locks, data-waiter counts) survives, the way a
// process's VM structures outlive a device reset; waiters are woken so
// they re-enter their fault loops against the cold state.
func (d *Driver) Crash() {
	if d.down {
		return
	}
	d.down = true
	d.everCrashed = true
	d.downSince = d.h.Kernel().Now()
	d.nic.SetDown(true)
	// Frames already in the receive ring died with the host.
	for {
		f, ok := d.nic.Recv()
		if !ok {
			break
		}
		d.nic.Release(f)
	}
	// Pending server work and warm-seed bookkeeping are driver state.
	for i := d.workHead; i < len(d.workq); i++ {
		d.workq[i] = workItem{}
	}
	d.workq = d.workq[:0]
	d.workHead = 0
	d.seedRanges = nil
	d.transits = nil
	for _, s := range d.shards {
		if s == nil {
			continue
		}
		for i := range s {
			st := &s[i]
			if !st.inited {
				continue
			}
			d.cancelRetry(st)
			// Field by field, never `*st = pageState{...}`: waitQ and
			// purgeQ are in there with local processes asleep on them, and
			// zeroing a queue strands its sleepers. They are woken below.
			st.frame = vm.Frame{}
			st.shortPresent, st.restPresent = false, false
			st.owner, st.restOwner = false, false
			st.grantedTo, st.grantedRestTo = proto.NoOwner, proto.NoOwner
			st.wantShort, st.wantRest, st.wantConsistent = false, false, false
			st.reqInFlight, st.reqAskedCons, st.reqAskedRest = false, false, false
			st.purgePending, st.purgeShort = false, false
			st.deferred = st.deferred[:0]
			st.backoff, st.claimTries = 0, 0
			st.installedAt = 0
			st.fullUnmapped, st.fullUnmappedByLock = false, false
			d.h.WakeupQ(&st.waitQ)
			d.h.WakeupQ(&st.purgeQ)
		}
	}
	d.h.WakeupQ(&d.serverQ)
}

// Recover brings a crashed host back on the wire. The driver state
// stays cold — re-join happens through the ordinary attach path, with
// every touched page re-materializing through the lazy directory and
// demand-fetching from the cluster. Outstanding wants (clients that
// faulted while down and went to sleep against suppressed sends) are
// re-sent immediately at the base retry timeout, so the re-join is as
// snappy as the protocol allows; RejoinNS measures until the first
// piece of data actually lands.
func (d *Driver) Recover() {
	if !d.down {
		return
	}
	now := d.h.Kernel().Now()
	d.down = false
	d.m.UnavailNS += now - d.downSince
	d.rejoinPending = true
	d.rejoinStart = now
	d.nic.SetDown(false)
	for _, s := range d.shards {
		if s == nil {
			continue
		}
		for i := range s {
			st := &s[i]
			if !st.inited {
				continue
			}
			st.backoff = 0
			if st.wantsAnything() {
				d.cancelRetry(st)
				st.reqInFlight = true
				d.enqueueWork(workItem{kind: workSendReq, page: st.page})
			}
		}
	}
}

// noteRejoin closes an open rejoin measurement: the first data that
// lands after a recovery ends the cold window.
func (d *Driver) noteRejoin() {
	if d.rejoinPending {
		d.rejoinPending = false
		d.m.RejoinNS += d.h.Kernel().Now() - d.rejoinStart
	}
}

// SettleFaults folds still-open fault windows into the metrics at
// end-of-run time: a host that is down (or mid-rejoin) when the
// workload stops measuring must still account the open window, or a
// crash near the cap would under-report unavailability. A no-op on
// healthy hosts.
func (d *Driver) SettleFaults(end time.Duration) {
	if d.down {
		d.m.UnavailNS += end - d.downSince
		d.downSince = end
	}
	if d.rejoinPending {
		d.rejoinPending = false
		d.m.RejoinNS += end - d.rejoinStart
	}
}
