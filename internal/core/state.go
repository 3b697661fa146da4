package core

import (
	"time"

	"mether/internal/host"
	"mether/internal/stats"
	"mether/internal/vm"
)

// pageState is the driver's per-page bookkeeping on one host. The frame
// holds the bytes; the booleans track which regions are resident and
// authoritative. The cluster-wide invariants, which CheckInvariants
// checks at quiescent points only:
//
//   - at most one host has owner=true per page (the consistent copy);
//   - at most one host has restOwner=true per page (the authoritative
//     superset remainder, which can lag behind the owner after a
//     short-view ownership transfer);
//   - restOwner implies restPresent; owner implies shortPresent.
//
// Mid-run they can fail: a grant re-sent after its grantee has passed
// the page on makes two owners (TestPhantomGrantMintsSecondOwner), and
// a grant lost to a down NIC leaves none (TestStrandedGrantLosesOwnership).
type pageState struct {
	// inited distinguishes a materialized entry from the zero value its
	// directory shard was born with; the directory (directory.go) sets it
	// on first touch after filling the non-zero defaults.
	inited bool
	page   vm.PageID
	// frame lives inline, and so does its short page: a pageState and
	// its short bytes are one allocation (per shard), and only a write
	// past the short page allocates the full one.
	frame vm.Frame

	shortPresent bool // first 32 bytes resident
	restPresent  bool // bytes [32, 8192) resident
	owner        bool // this host holds the consistent copy
	restOwner    bool // this host holds the authoritative remainder

	mappedRO bool
	mappedRW bool
	locked   bool
	// fullUnmappedByLock marks the superset unmapped for the duration of
	// a short-view lock; fullUnmapped marks it unmapped after a pageout
	// (Figure-1 rules; remapping is implicit on next access).
	fullUnmappedByLock bool
	fullUnmapped       bool

	purgePending bool
	purgeShort   bool // extent of the pending purge broadcast

	// grantedTo / grantedRestTo remember the last host each authority was
	// granted to, so a lost grant can be retransmitted when the grantee
	// asks again (datagram transport loses packets).
	grantedTo     int16
	grantedRestTo int16

	// installedAt is when ownership last arrived here. The server defers
	// serving steal requests until MinResidency has elapsed, so the local
	// client gets one chance to use a page it faulted in — without this
	// anti-thrash holdoff two writers ping-pong a page without either
	// making progress.
	installedAt time.Duration

	// Demand-driven fault state: which regions/rights the local waiters
	// need, whether a request is on the wire, and the retry timer.
	wantShort      bool
	wantRest       bool
	wantConsistent bool
	reqInFlight    bool
	// reqAskedCons / reqAskedRest record what the in-flight request asked
	// for, so escalated needs (e.g. a write fault joining a read fault)
	// trigger an immediate new request instead of waiting for the retry.
	reqAskedCons bool
	reqAskedRest bool
	reqID        uint16
	retry        *retryTimer
	// backoff is the exponential retry-backoff exponent, advanced only
	// while the NIC is down (a crashed host's retries go nowhere, so
	// spinning them at the base timeout just heats the event kernel) and
	// reset to zero by the first up-NIC retry arm.
	backoff uint8
	// claimTries counts consecutive unanswered retries toward the
	// orphaned-ownership claim threshold (Config.ClaimRetries); any
	// arriving data resets it.
	claimTries uint8

	// dataWaiters counts processes blocked in data-driven faults; they
	// are woken by any transit of the page.
	dataWaiters int
	// transitSeq counts every observed transit of this page; dataArmSeq
	// records the count at the application's last read-only purge. A
	// data-driven fault that finds the two unequal knows a transit slipped
	// into the purge→touch window and falls back to a demand fetch
	// instead of blocking for a broadcast that will never recur.
	transitSeq uint64
	dataArmSeq uint64

	// deferred requests received while the page was locked or mid-purge.
	deferred []deferredReq

	// waitQ holds the local processes blocked on the page (demand and
	// data-driven waiters alike; they re-check their condition on wake),
	// purgeQ the one blocked in a writable PURGE awaiting the server's
	// DO-PURGE. Every transit wakes waitQ, so the queues live here, where
	// the receive path already is, and an empty one costs a compare. With
	// sleepers inside it a pageState must never be overwritten whole.
	waitQ  host.WaitQ
	purgeQ host.WaitQ
}

type deferredReq struct {
	from  int16
	short bool
	cons  bool
	rest  bool // a rest-fetch rather than a page request
	reqID uint16
}

// wantsAnything reports whether demand state remains outstanding.
func (st *pageState) wantsAnything() bool {
	return st.wantShort || st.wantRest || st.wantConsistent
}

// reqCoversWants reports whether the in-flight request already asked for
// everything currently wanted.
func (st *pageState) reqCoversWants() bool {
	if st.wantConsistent && !st.reqAskedCons {
		return false
	}
	if st.wantRest && !st.reqAskedRest {
		return false
	}
	return true
}

// Metrics aggregates one host's driver/server counters. Latency is
// measured from first fault to access satisfaction, like the paper's
// "mean time required for a page fault".
type Metrics struct {
	DemandFaults uint64
	DataFaults   uint64
	RequestsSent uint64
	Retries      uint64
	DataSent     uint64 // TypeData broadcasts sent (requests served + purges)
	PurgeSends   uint64 // subset of DataSent caused by writable purges
	RestSent     uint64
	Installs     uint64 // copies installed because wanted/addressed to us
	Refreshes    uint64 // snoopy refreshes of resident copies
	StaleDrops   uint64 // broadcasts ignored because generation was older
	// CrossTrunkStale is the subset of StaleDrops whose sender sat on a
	// different Ethernet trunk: bridge-queue reordering delivered an old
	// broadcast after a newer one — the multi-trunk purge-ordering
	// hazard, zero by construction on a single trunk.
	CrossTrunkStale uint64
	PurgesRO        uint64
	PurgesRW        uint64
	LockFails       uint64
	Deferred        uint64 // requests deferred due to lock/purge
	DataFallbacks   uint64 // data faults converted to demand (missed transit)
	HoldOffs        uint64 // steal requests delayed by the residency holdoff
	// Redundant-fetch counters (Config.Redundancy > 1). RedundantReqs
	// counts requests sent with extra targets; RedundantServes counts
	// replica answers sent on behalf of the owner; RedundantSuppressed
	// counts replica answers cancelled because a transit (almost always
	// the winning reply) covered the page first.
	RedundantReqs       uint64
	RedundantServes     uint64
	RedundantSuppressed uint64
	// LateGrantDrops counts ownership/rest grants addressed to this host
	// that arrived after the want was already satisfied (a retransmit or
	// a redundant loser racing a retry) and were dropped by explicit
	// generation/want comparison instead of being double-applied.
	LateGrantDrops uint64
	// KernelTime is CPU consumed by interrupt-level protocol processing
	// in kernel-server mode (zero with the user-level server).
	KernelTime time.Duration
	// Fault-plane counters (all zero in healthy worlds). OrphanRecoveries
	// counts pages whose orphaned authority this host re-minted via the
	// claim path after a crashed owner stopped answering; GhostDrops
	// counts stale authority grants refused by the post-crash want fence
	// (a recovered ghost must not re-mint authority from a pre-crash
	// grant).
	OrphanRecoveries uint64
	GhostDrops       uint64
	// UnavailNS totals this host's NIC-down windows; RejoinNS totals
	// recovery-to-first-reinstall latencies (cold re-join time through
	// the lazy directory attach path).
	UnavailNS time.Duration
	RejoinNS  time.Duration

	FaultLatency stats.Histogram
}

// Add folds another host's metrics into m: counters and durations
// summed, fault latencies merged. The world's harvest is every driver's
// metrics added up.
func (m *Metrics) Add(o *Metrics) {
	m.DemandFaults += o.DemandFaults
	m.DataFaults += o.DataFaults
	m.RequestsSent += o.RequestsSent
	m.Retries += o.Retries
	m.DataSent += o.DataSent
	m.PurgeSends += o.PurgeSends
	m.RestSent += o.RestSent
	m.Installs += o.Installs
	m.Refreshes += o.Refreshes
	m.StaleDrops += o.StaleDrops
	m.CrossTrunkStale += o.CrossTrunkStale
	m.PurgesRO += o.PurgesRO
	m.PurgesRW += o.PurgesRW
	m.LockFails += o.LockFails
	m.Deferred += o.Deferred
	m.DataFallbacks += o.DataFallbacks
	m.HoldOffs += o.HoldOffs
	m.RedundantReqs += o.RedundantReqs
	m.RedundantServes += o.RedundantServes
	m.RedundantSuppressed += o.RedundantSuppressed
	m.LateGrantDrops += o.LateGrantDrops
	m.KernelTime += o.KernelTime
	m.OrphanRecoveries += o.OrphanRecoveries
	m.GhostDrops += o.GhostDrops
	m.UnavailNS += o.UnavailNS
	m.RejoinNS += o.RejoinNS
	m.FaultLatency.Merge(&o.FaultLatency)
}
