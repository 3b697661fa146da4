package core

import (
	"errors"
	"fmt"
	"time"

	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/vm"
)

// Errors returned by driver operations.
var (
	// ErrReadOnly reports a store through a read-only or data-driven view.
	ErrReadOnly = errors.New("core: store to read-only view")
	// ErrInvalidView reports an access combination the address space does
	// not provide (e.g. data-driven consistent access; paper note 2).
	ErrInvalidView = errors.New("core: invalid view for access")
	// ErrNotMapped reports access to a page that is not mapped in.
	ErrNotMapped = errors.New("core: page not mapped")
	// ErrLockFailed reports a failed Lock; missing subsets were marked
	// wanted per Figure 1, so a retry after they arrive will succeed.
	ErrLockFailed = errors.New("core: lock failed")
	// ErrNotPresent reports an operation that needs resident data the
	// host does not hold (e.g. purging an absent full page).
	ErrNotPresent = errors.New("core: page not present")
)

// Config carries the Mether driver/server cost model and limits.
type Config struct {
	// NumPages bounds the global Mether page space for this world.
	NumPages int
	// RetryTimeout is how long the server waits for a demand request to
	// be satisfied before retransmitting. Mether runs over unreliable
	// datagrams; requests must be retried.
	RetryTimeout time.Duration
	// PacketCost is the user-level server's CPU cost to handle or send
	// one packet (UDP traversal, context bookkeeping).
	PacketCost time.Duration
	// ByteCost is the per-payload-byte CPU cost (copies and checksums);
	// this is what makes 8 KiB transfers so much more expensive than
	// short pages on the host as well as on the wire.
	ByteCost time.Duration
	// MinResidency is the anti-thrash holdoff: after ownership arrives,
	// steal requests are deferred this long so the local client can use
	// the page at least once. Without it two writers ping-pong a page
	// endlessly with neither making progress.
	MinResidency time.Duration
	// KernelServer runs protocol processing at interrupt level instead
	// of in a user-level server process — the paper's proposed fix for
	// the context-switch bottleneck. See kernel.go.
	KernelServer bool
	// TrunkOf maps every host id to its Ethernet trunk (nil = the
	// classic single-trunk world). The driver uses it only for
	// diagnostics: bridge queues reorder broadcasts between trunks, so a
	// refresh can arrive after a newer one already landed — the paper's
	// "which purge goes out first depends on the depth of the queues in
	// the hosts and the bridges" hazard — and the trunk map lets
	// Metrics.CrossTrunkStale count exactly those arrivals.
	TrunkOf []int
	// Redundancy is the redundant-fetch fan-out k for read faults: a
	// non-consistent demand request additionally names the k-1 nearest
	// peers (trunk-aware) as extra targets, any of which may answer from
	// a resident replica. The first response wins; replicas whose answer
	// is overtaken by a transit suppress it. 0 or 1 is the classic
	// owner-only protocol and leaves the wire format byte-identical.
	Redundancy int
	// NumHosts is the world's host count, needed by the redundant-fetch
	// target selection (0 disables redundancy regardless of Redundancy).
	NumHosts int
	// TrunkHops returns the bridge-hop distance between two trunks for
	// nearest-first target ordering. Nil falls back to 0 (same trunk) /
	// 1 (different trunk) derived from TrunkOf.
	TrunkHops func(a, b int) int
	// ClaimRetries arms orphaned-ownership recovery: after this many
	// consecutive unanswered retries (the owner has stopped answering —
	// it crashed and its authority is orphaned), the requester claims the
	// page, self-minting ownership at a bumped generation and
	// broadcasting the claim. 0 (the default) disables claiming, which
	// keeps every healthy-world cell byte-identical; fault worlds whose
	// schedule can orphan authority turn it on. Worlds that partition
	// must leave it off: a requester cut off by a bridge cannot
	// distinguish a crashed owner from an unreachable one, and claiming
	// across a partition would mint a second owner that the heal exposes.
	ClaimRetries int
	// LazyReplicas keeps the receive path from materializing page state
	// for pages this host has never touched: snooped broadcasts that are
	// not addressed here are noted in a transit bitmap and skipped
	// (handling cost is still charged — the skip is memory-only). The
	// trade is that an untouched seeded replica no longer tracks refresh
	// broadcasts, so its first materialized read sees the seed-time zeros
	// rather than the latest transit (pinned by
	// TestLazyReplicasUntouchedSeedSeesZeros), and redundant-fetch targets
	// without state never answer. The classic grids leave this off (their warm
	// multi-trunk and k>1 cells measure exactly those refresh effects);
	// the 4096/10000-host tiers turn it on, where hosts touch O(1) of the
	// page space and per-host state must track the working set.
	LazyReplicas bool
}

// DefaultConfig returns the calibrated Sun-3/50-class server cost model.
func DefaultConfig(numPages int) Config {
	return Config{
		NumPages:     numPages,
		RetryTimeout: 250 * time.Millisecond,
		PacketCost:   1500 * time.Microsecond,
		ByteCost:     3 * time.Microsecond,
		MinResidency: 10 * time.Millisecond,
	}
}

// Driver is one host's Mether kernel driver plus the state shared with
// its user-level server. All client-facing methods must be called from a
// coroutine process on the same host (they may block the caller); the
// server runs as its own process, a host task started by StartServer.
type Driver struct {
	h     *host.Host
	nic   medium.Port
	cfg   Config
	id    int16
	trunk int // this host's trunk (0 when Config.TrunkOf is nil)

	// shards is the two-level page directory (directory.go): a dense
	// slice of shard pointers indexed by PageID>>shardBits, with leaf
	// shards materialized on first touch so footprint tracks the working
	// set. The hot-path lookup stays a branch plus two indexes.
	shards []*pageShard
	// seedRanges records warm-replica seeding (SeedReplicaRange) applied
	// lazily as directory entries materialize.
	seedRanges []pageRange
	// transits marks pages whose TypeData broadcasts were snooped while
	// unmaterialized (LazyReplicas mode); nil until first needed.
	transits []uint64
	// workq is drained via workHead instead of re-slicing so the backing
	// array is reused once the queue empties.
	workq    []workItem
	workHead int
	stopped  bool
	// server is the server loop's continuation, for either server: a
	// pointer, so that what the loop remembers costs Driver nothing.
	server *server
	// retryFree is the freelist of retry timers (armRetry): a timer is
	// allocated once and reused, so arming a retry allocates nothing.
	retryFree *retryTimer
	kDraining bool
	m         Metrics
	// txBuf is the reusable packet-encode scratch buffer: transmit
	// encodes into it and the NIC copies it onto the (pooled) wire
	// buffer, so steady-state sends do not allocate.
	txBuf []byte
	// serverQ is where the user-level server sleeps between frames;
	// intrFn and stepFn are the prebuilt closures for the frame-arrival
	// and kernel-server drain paths.
	serverQ host.WaitQ
	intrFn  func()
	stepFn  func()
	// Fault-plane state (world.CrashHost / RecoverHost). down mirrors the
	// NIC; everCrashed stays set forever after the first crash and gates
	// the ghost fence (a host that never crashed keeps PR 6's exact
	// adopt-or-drop behaviour). downSince/rejoinStart/rejoinPending drive
	// the UnavailNS and RejoinNS measurements.
	down          bool
	everCrashed   bool
	rejoinPending bool
	downSince     time.Duration
	rejoinStart   time.Duration
	// redundant is the cached nearest-first extra-target list for
	// redundant fetches (page-independent, built lazily once); its wire
	// encoding is cached alongside so request sends do not re-encode it.
	redundant    []int16
	redundantEnc []byte
}

type workKind uint8

const (
	workSendReq workKind = iota + 1
	workPurge
	workRedeliver
	// workRedundant is a replica's deferred answer to a redundant fetch
	// that named this host as an extra target; seq snapshots the page's
	// transit count so the answer is suppressed if any transit (almost
	// always the winning reply) covered the page in the meantime.
	workRedundant
	// workClaim is the orphaned-ownership claim: ClaimRetries retries
	// went unanswered, so the server re-mints authority for the page
	// (re-checking that nothing arrived in the meantime).
	workClaim
)

type workItem struct {
	kind workKind
	page vm.PageID
	req  deferredReq
	seq  uint64
}

// New creates the driver for host h using port n (a station on whatever
// medium the world was built over). The port's interrupt callback must
// be wired (by the caller) to d.FrameArrived.
func New(h *host.Host, n medium.Port, cfg Config) *Driver {
	if cfg.NumPages <= 0 || cfg.NumPages > addrPageMax || cfg.NumPages > proto.MaxPages {
		panic(fmt.Sprintf("core: NumPages %d out of range", cfg.NumPages))
	}
	if h.ID() > proto.MaxHostID {
		panic(fmt.Sprintf("core: host id %d beyond the wire format's %d", h.ID(), proto.MaxHostID))
	}
	d := &Driver{
		h:      h,
		nic:    n,
		cfg:    cfg,
		id:     int16(h.ID()),
		shards: make([]*pageShard, (cfg.NumPages+shardSize-1)>>shardBits),
		server: new(server),
	}
	if cfg.TrunkOf != nil {
		d.trunk = cfg.TrunkOf[h.ID()]
	}
	d.intrFn = func() { d.h.WakeupQ(&d.serverQ) }
	if cfg.KernelServer {
		// stepFn only drives the interrupt-level drain loop; user-level
		// server worlds never call it, so don't box a closure per driver.
		d.stepFn = func() { d.kernelStep() }
	}
	return d
}

// Metrics returns the driver's counters; the pointer stays valid for the
// driver's lifetime.
func (d *Driver) Metrics() *Metrics { return &d.m }

// FrameArrived is the NIC interrupt hook: it wakes the user-level server
// after the configured interrupt latency — or, in kernel-server mode,
// processes the frame at interrupt level.
func (d *Driver) FrameArrived() {
	if d.cfg.KernelServer {
		d.kernelKick(d.h.Params().InterruptCost)
		return
	}
	d.h.Interrupt(d.intrFn)
}

// CreatePage makes this host the initial owner of a page: the consistent
// copy and the authoritative remainder both start here, zero-filled.
func (d *Driver) CreatePage(id vm.PageID) {
	st := d.page(id)
	st.owner = true
	st.restOwner = true
	st.shortPresent = true
	st.restPresent = true
}

// MapIn maps a page into the given space. Per Figure 1 ("mapping a page
// in: all subsets must be present; supersets need not be present") the
// call demand-fetches the short page if it is absent, blocking the
// caller; the full remainder is not fetched.
func (d *Driver) MapIn(p *host.Proc, mode Mode, id vm.PageID) error {
	st := d.page(id)
	switch mode {
	case RO:
		st.mappedRO = true
	case RW:
		st.mappedRW = true
	default:
		return fmt.Errorf("%w: mode %v", ErrInvalidView, mode)
	}
	if st.shortPresent {
		return nil
	}
	start := p.Now()
	for !st.shortPresent {
		if err := d.demandFault(p, st, needSet{short: true}); err != nil {
			return err
		}
	}
	d.m.FaultLatency.Observe(p.Now() - start)
	return nil
}

// MapOut removes a mapping. Contents stay resident (pageout is separate).
func (d *Driver) MapOut(mode Mode, id vm.PageID) {
	st := d.page(id)
	switch mode {
	case RO:
		st.mappedRO = false
	case RW:
		st.mappedRW = false
	}
}

// needSet describes what a faulting access requires.
type needSet struct {
	short      bool // first 32 bytes resident
	rest       bool // remainder resident
	consistent bool // ownership (consistent copy) held here
	restAuth   bool // authoritative remainder held here
}

// accessNeeds computes requirements for an access at a. Per Figure 1's
// fault row, a fault on the short space pages in only the subset, while a
// fault on the full space pages in all subsets — the entire 8 KiB page.
// This is exactly the paper's protocol-1 versus protocol-2 distinction:
// "when a process required access to the 32-bit word [through the full
// space] an entire Sun page had to be transferred."
func accessNeeds(mode Mode, a Addr, size int) needSet {
	_ = size // the view, not the access width, decides the extent
	n := needSet{short: true}
	if !a.IsShort() {
		n.rest = true
	}
	if mode == RW {
		n.consistent = true
		if n.rest {
			n.restAuth = true
		}
	}
	return n
}

// satisfied reports whether the page state meets the needs.
func (st *pageState) satisfied(n needSet) bool {
	if n.short && !st.shortPresent {
		return false
	}
	if n.rest && !st.restPresent {
		return false
	}
	if n.consistent && !st.owner {
		return false
	}
	if n.restAuth && !st.restOwner {
		return false
	}
	return true
}

// mapped reports whether the page is mapped in mode, RO or RW.
func (st *pageState) mapped(mode Mode) bool {
	if mode == RO {
		return st.mappedRO
	}
	return st.mappedRW
}

// checkAccess validates view/mode legality for an access.
func (d *Driver) checkAccess(mode Mode, a Addr, size int, write bool) (*pageState, error) {
	if err := a.CheckAccess(size); err != nil {
		return nil, err
	}
	st := d.page(a.Page())
	switch mode {
	case RO:
		if !st.mappedRO {
			return nil, fmt.Errorf("%w: page %d (ro)", ErrNotMapped, a.Page())
		}
		if write {
			return nil, fmt.Errorf("%w: %v", ErrReadOnly, a)
		}
	case RW:
		if !st.mappedRW {
			return nil, fmt.Errorf("%w: page %d (rw)", ErrNotMapped, a.Page())
		}
		if a.IsData() {
			// "Note that the consistent space can only be demand-driven."
			return nil, fmt.Errorf("%w: data-driven consistent access at %v", ErrInvalidView, a)
		}
	default:
		return nil, fmt.Errorf("%w: mode %v", ErrInvalidView, mode)
	}
	return st, nil
}

// access drives the fault loop until the needs are met, then calls fn.
// It implements both demand-driven and data-driven semantics.
func (d *Driver) access(p *host.Proc, mode Mode, a Addr, size int, write bool, fn func(st *pageState) error) error {
	st, err := d.checkAccess(mode, a, size, write)
	if err != nil {
		return err
	}
	needs := accessNeeds(mode, a, size)
	faulted := false
	start := p.Now()
	for !st.satisfied(needs) {
		faulted = true
		if a.IsData() {
			if err := d.dataFault(p, st); err != nil {
				return err
			}
		} else {
			if err := d.demandFault(p, st, needs); err != nil {
				return err
			}
		}
	}
	if faulted {
		d.m.FaultLatency.Observe(p.Now() - start)
	}
	return fn(st)
}

// demandFault blocks the caller until something about the page changes,
// after marking wants and queueing a request for the server to send.
// Callers loop: the wake may be for a different region than needed.
func (d *Driver) demandFault(p *host.Proc, st *pageState, needs needSet) error {
	d.m.DemandFaults++
	p.UseSys(d.h.Params().TrapCost)
	// Re-check after the trap: the wanted data may have arrived while the
	// trap cost was being charged (the client can be preempted in Use).
	if st.satisfied(needs) {
		return nil
	}
	if needs.short && !st.shortPresent {
		st.wantShort = true
	}
	if needs.rest && !st.restPresent {
		st.wantRest = true
	}
	if needs.consistent && !st.owner {
		st.wantConsistent = true
	}
	if needs.restAuth && !st.restOwner {
		st.wantRest = true
	}
	d.queueRequest(st)
	p.SleepOnQ(&st.waitQ)
	return nil
}

// dataFault blocks the caller until any copy of the page transits the
// network. No request is sent: this fault is completely passive — except
// when a transit slipped between the caller's purge and this fault, in
// which case waiting would deadlock and the driver falls back to one
// demand fetch to preserve liveness.
func (d *Driver) dataFault(p *host.Proc, st *pageState) error {
	d.m.DataFaults++
	p.UseSys(d.h.Params().TrapCost)
	if st.shortPresent { // a transit landed during the trap
		return nil
	}
	if st.transitSeq != st.dataArmSeq {
		st.dataArmSeq = st.transitSeq
		d.m.DataFallbacks++
		st.wantShort = true
		d.queueRequest(st)
		p.SleepOnQ(&st.waitQ)
		return nil
	}
	st.dataWaiters++
	p.SleepOnQ(&st.waitQ)
	st.dataWaiters--
	return nil
}

// queueRequest schedules the server to send a demand request for the
// page unless an in-flight request already covers the current wants.
func (d *Driver) queueRequest(st *pageState) {
	if st.reqInFlight && st.reqCoversWants() {
		return
	}
	st.reqInFlight = true
	d.enqueueWork(workItem{kind: workSendReq, page: st.page})
}

// enqueueWork appends server work and wakes whoever processes it.
func (d *Driver) enqueueWork(w workItem) {
	d.workq = append(d.workq, w)
	if d.cfg.KernelServer {
		d.kernelKick(0)
		return
	}
	d.h.WakeupQ(&d.serverQ)
}

// dequeueWork pops the oldest pending work item. The backing array is
// reused once the queue drains.
func (d *Driver) dequeueWork() (workItem, bool) {
	if d.workHead >= len(d.workq) {
		return workItem{}, false
	}
	w := d.workq[d.workHead]
	d.workq[d.workHead] = workItem{}
	d.workHead++
	if d.workHead == len(d.workq) {
		d.workq = d.workq[:0]
		d.workHead = 0
	}
	return w, true
}

// Load reads an integer of size 1, 2, 4 or 8 bytes through the given
// mapping and address, faulting as needed.
func (d *Driver) Load(p *host.Proc, mode Mode, a Addr, size int) (uint64, error) {
	var v uint64
	err := d.access(p, mode, a, size, false, func(st *pageState) error {
		var err error
		v, err = st.frame.Load(a.Offset(), size)
		return err
	})
	return v, err
}

// Poll is the state of a Spin32 in progress. It is the spinning process's
// (one each, reused by every spin it makes), not the driver's or the
// page's: a spin allocates nothing, and Driver and pageState, whose
// sizes are in a report, do not grow.
type Poll struct {
	d     *Driver
	mode  Mode
	a     Addr
	done  func(uint32) bool
	v     uint64
	slow  bool        // the last look needs the coroutine: a fault, an error
	look  func() bool // s.loses, boxed once
	st    *pageState  // the page, once this Spin32's first look checked it
	needs needSet
}

// Spin32 is
//
//	for n := 0; ; { p.UseUser(every); v, err := d.Load(p, mode, a, 4); if err != nil || done(v) { return v, err }; *lost++; if n++; n >= limit { return v, nil } }
//
// event for event, with the looks that find the page resident — which
// touch no metric and cannot block — made by the scheduler
// (host.Proc.UseWhile) while the calling coroutine sleeps. A look that
// would fault or fail ends the poll and the coroutine makes it, as the
// blocking Load. done is asked about every look's value, the faulting
// ones too; it must be pure (host.Proc.UseWhile), as the scheduler asks it
// once for a run of looks that all see the same page. *lost counts the
// losses as they happen, so a run cut short in mid-spin has counted them.
// A limit below 1 is 1.
func (d *Driver) Spin32(p *host.Proc, s *Poll, mode Mode, a Addr, every time.Duration, done func(uint32) bool, limit int, lost *uint64) (uint32, error) {
	if every <= 0 {
		return 0, fmt.Errorf("core: spin every %v: a look must cost CPU time", every)
	}
	if s.look == nil {
		s.look = s.loses
	}
	s.d, s.mode, s.a, s.done, s.st = d, mode, a, done, nil
	for {
		s.slow = false
		from := *lost
		p.UseWhile(every, host.CPUUser, s.look, limit, lost)
		if !s.slow {
			return uint32(s.v), nil
		}
		v, err := d.Load(p, mode, a, 4)
		if err != nil || done(uint32(v)) {
			return uint32(v), err
		}
		*lost++
		if limit -= int(*lost - from); limit <= 0 {
			return uint32(v), nil
		}
	}
}

// loses is one look of a Spin32: Load's checks and, when they pass
// without a fault, its read and done's verdict. A Spin32's first look
// checks in full and keeps the page; later ones re-check only what can
// change, the mapping (MapOut) and residency. The pointer stays valid:
// directory entries never move, and a crash wipes them in place.
func (s *Poll) loses() bool {
	var err error
	st := s.st
	if st == nil || !st.mapped(s.mode) {
		if st, err = s.d.checkAccess(s.mode, s.a, 4, false); err != nil {
			s.slow = true
			return false
		}
		s.st, s.needs = st, accessNeeds(s.mode, s.a, 4)
	}
	if st.satisfied(s.needs) {
		if s.v, err = st.frame.Load(s.a.Offset(), 4); err == nil {
			s.slow = false
			return !s.done(uint32(s.v))
		}
	}
	s.slow = true
	return false
}

// Store writes an integer of size 1, 2, 4 or 8 bytes through the given
// mapping and address, faulting in the consistent copy as needed.
func (d *Driver) Store(p *host.Proc, mode Mode, a Addr, size int, v uint64) error {
	return d.access(p, mode, a, size, true, func(st *pageState) error {
		return st.frame.Store(a.Offset(), size, v)
	})
}

// ReadBytes copies len(buf) bytes from the page into buf.
func (d *Driver) ReadBytes(p *host.Proc, mode Mode, a Addr, buf []byte) error {
	return d.access(p, mode, a, len(buf), false, func(st *pageState) error {
		return st.frame.ReadBytes(a.Offset(), buf)
	})
}

// WriteBytes copies data into the page.
func (d *Driver) WriteBytes(p *host.Proc, mode Mode, a Addr, data []byte) error {
	return d.access(p, mode, a, len(data), true, func(st *pageState) error {
		return st.frame.WriteBytes(a.Offset(), data)
	})
}

// Purge implements the PURGE operator (syscall).
//
// Read-only (or unowned) pages: the local copy of the addressed view is
// invalidated; the next access refetches — the application's active
// update. Per Figure 1, purging the short view leaves the superset
// remainder resident and purging the full view invalidates all subsets.
// Purging a page whose consistent copy is local through a read-only view
// is a no-op (the only consistent copy cannot be discarded); this is
// exactly why the paper's fourth protocol "continues to sample a value
// that is not changing".
//
// Writable (owned) pages: the page is marked purge-pending and the caller
// sleeps until the server has broadcast a read-only copy and issued
// DO-PURGE — the passive update that propagates new contents.
func (d *Driver) Purge(p *host.Proc, mode Mode, a Addr) error {
	st := d.page(a.Page())
	p.UseSys(d.h.Params().SyscallCost)
	if mode == RW && st.owner {
		if !a.IsShort() && !st.restPresent {
			return fmt.Errorf("%w: full purge of page %d without remainder", ErrNotPresent, a.Page())
		}
		d.m.PurgesRW++
		st.purgePending = true
		st.purgeShort = a.IsShort()
		d.enqueueWork(workItem{kind: workPurge, page: st.page})
		for st.purgePending {
			p.SleepOnQ(&st.purgeQ)
		}
		return nil
	}
	d.m.PurgesRO++
	if st.owner {
		return nil // sole consistent copy: purge is a no-op
	}
	st.shortPresent = false
	// Purge invalidates replicas; an authoritative remainder (held after
	// granting ownership via a short transfer) is not a replica and must
	// survive, or its bytes would be lost cluster-wide.
	if !a.IsShort() && !st.restOwner {
		st.restPresent = false
	}
	// Arm the purge→data-fault race detector: a transit arriving from
	// here until the next data-driven fault must not be missed.
	st.dataArmSeq = st.transitSeq
	return nil
}

// Lock implements the Figure-1 lock rules. Locking pins the page's
// resident copies: the server defers remote requests (including
// consistency transfers) until Unlock. Missing pieces fail the lock and
// are marked wanted so the server fetches them in the background.
func (d *Driver) Lock(p *host.Proc, mode Mode, a Addr) error {
	st := d.page(a.Page())
	p.UseSys(d.h.Params().SyscallCost)
	missing := false
	if !st.shortPresent {
		st.wantShort = true
		missing = true
	}
	// For a short-view lock the superset (the full page) must be present
	// though it is not itself locked; for a full-view lock the remainder
	// is a subset and must be present too.
	if !st.restPresent {
		st.wantRest = true
		missing = true
	}
	if missing {
		d.m.LockFails++
		d.queueRequest(st)
		return fmt.Errorf("%w: page %d has absent pieces (marked wanted)", ErrLockFailed, a.Page())
	}
	st.locked = true
	if a.IsShort() {
		// Supersets are unmapped for the duration of the lock.
		st.fullUnmappedByLock = true
	}
	_ = mode
	return nil
}

// Unlock releases a lock and redelivers requests deferred while it was
// held.
func (d *Driver) Unlock(p *host.Proc, a Addr) error {
	st := d.page(a.Page())
	p.UseSys(d.h.Params().SyscallCost)
	if !st.locked {
		return fmt.Errorf("core: unlock of unlocked page %d", a.Page())
	}
	st.locked = false
	st.fullUnmappedByLock = false
	d.flushDeferred(st)
	return nil
}

// flushDeferred requeues requests that arrived while the page was locked
// or purge-pending.
func (d *Driver) flushDeferred(st *pageState) {
	for _, r := range st.deferred {
		d.enqueueWork(workItem{kind: workRedeliver, page: st.page, req: r})
	}
	st.deferred = nil
}

// PageOut implements the Figure-1 pageout rule: all subsets of the
// addressed view are paged out; supersets stay resident but are unmapped.
// Pageout applies to replicas only: Mether has no backing store, so
// evicting a region this host holds the authority for (the consistent
// copy or the authoritative remainder) would destroy the only current
// bytes, and the call refuses.
func (d *Driver) PageOut(a Addr) error {
	st := d.page(a.Page())
	if a.IsShort() {
		if st.owner {
			return fmt.Errorf("%w: pageout of the consistent copy of page %d", ErrNotPresent, a.Page())
		}
		st.shortPresent = false
		st.fullUnmappedByLock = false
		st.fullUnmapped = true
		return nil
	}
	if st.owner || st.restOwner {
		return fmt.Errorf("%w: pageout of an authoritative region of page %d", ErrNotPresent, a.Page())
	}
	st.shortPresent = false
	st.restPresent = false
	return nil
}

// PageSnapshot is an observable copy of per-page driver state for tests
// and diagnostics.
type PageSnapshot struct {
	ShortPresent bool
	RestPresent  bool
	Owner        bool
	RestOwner    bool
	MappedRO     bool
	MappedRW     bool
	Locked       bool
	FullUnmapped bool
	PurgePending bool
	WantShort    bool
	WantRest     bool
	WantCons     bool
	DataWaiters  int
	Gen          uint64
}

// Snapshot returns the current state of a page on this host.
func (d *Driver) Snapshot(id vm.PageID) PageSnapshot {
	st := d.page(id)
	return PageSnapshot{
		ShortPresent: st.shortPresent,
		RestPresent:  st.restPresent,
		Owner:        st.owner,
		RestOwner:    st.restOwner,
		MappedRO:     st.mappedRO,
		MappedRW:     st.mappedRW,
		Locked:       st.locked,
		FullUnmapped: st.fullUnmapped || st.fullUnmappedByLock,
		PurgePending: st.purgePending,
		WantShort:    st.wantShort,
		WantRest:     st.wantRest,
		WantCons:     st.wantConsistent,
		DataWaiters:  st.dataWaiters,
		Gen:          st.frame.Gen(),
	}
}

// redundantTargets returns the wire-encoded extra-target list naming
// the `extra` nearest peers for a redundant fetch. Nearest-first is
// trunk-aware: peers are ordered by bridge-hop distance from this
// host's trunk, then by host-id distance (replicas of a page cluster
// around its numeric neighbourhood in the block-partitioned worlds),
// then by id for determinism. The list is page-independent, so it is
// built once and cached; a host that turns out to be the owner is
// harmless as a target (the owner answers the broadcast anyway and a
// targeted owner skips the extra serve).
func (d *Driver) redundantTargets(extra int) []byte {
	if extra <= 0 || d.cfg.NumHosts <= 1 {
		return nil
	}
	if d.redundantEnc == nil {
		hops := d.cfg.TrunkHops
		if hops == nil {
			hops = func(a, b int) int {
				if a == b {
					return 0
				}
				return 1
			}
		}
		trunkOf := func(h int) int {
			if d.cfg.TrunkOf == nil || h >= len(d.cfg.TrunkOf) {
				return 0
			}
			return d.cfg.TrunkOf[h]
		}
		self := d.h.ID()
		max := proto.MaxRedundantTargets
		ids := make([]int16, 0, max)
		// Selection sort of the first `max` peers by (hops, |Δid|, id):
		// host counts reach 1024 but max is 8, so the scan is cheap and
		// allocation-free beyond the cached slices.
		better := func(a, b int) bool {
			ha, hb := hops(trunkOf(self), trunkOf(a)), hops(trunkOf(self), trunkOf(b))
			if ha != hb {
				return ha < hb
			}
			da, db := a-self, b-self
			if da < 0 {
				da = -da
			}
			if db < 0 {
				db = -db
			}
			if da != db {
				return da < db
			}
			return a < b
		}
		for len(ids) < max && len(ids) < d.cfg.NumHosts-1 {
			best := -1
			for h := 0; h < d.cfg.NumHosts; h++ {
				if h == self {
					continue
				}
				taken := false
				for _, t := range ids {
					if int(t) == h {
						taken = true
						break
					}
				}
				if taken {
					continue
				}
				if best < 0 || better(h, best) {
					best = h
				}
			}
			if best < 0 {
				break
			}
			ids = append(ids, int16(best))
		}
		d.redundant = ids
		d.redundantEnc = proto.AppendTargets(make([]byte, 0, 2*len(ids)), ids)
	}
	if extra > len(d.redundant) {
		extra = len(d.redundant)
	}
	return d.redundantEnc[:2*extra]
}

// CheckInvariants verifies the cluster-wide single-consistent-copy
// invariants over a set of drivers sharing one page space: each page has
// at most one owner and at most one rest owner, an owner holds the short
// page and a rest owner the remainder. They hold at quiescent points, not
// mid-transfer (see pageState). The walk is driver-major over materialized shards only — an
// unmaterialized (or merely seeded) entry holds no authority by
// construction, so skipping it checks the same invariants in
// O(working set + pages) instead of O(drivers × pages).
func CheckInvariants(drivers ...*Driver) error {
	if len(drivers) == 0 {
		return nil
	}
	n := drivers[0].cfg.NumPages
	owners := make([]int16, n)
	restOwners := make([]int16, n)
	for _, d := range drivers {
		for si, s := range d.shards {
			if s == nil {
				continue
			}
			for i := range s {
				st := &s[i]
				if !st.inited {
					continue
				}
				pg := si<<shardBits | i
				if st.owner {
					owners[pg]++
					if !st.shortPresent {
						return fmt.Errorf("host %d owns page %d without short presence", d.h.ID(), pg)
					}
				}
				if st.restOwner {
					restOwners[pg]++
					if !st.restPresent {
						return fmt.Errorf("host %d rest-owns page %d without rest presence", d.h.ID(), pg)
					}
				}
			}
		}
	}
	for pg := 0; pg < n; pg++ {
		if owners[pg] > 1 {
			return fmt.Errorf("page %d has %d consistent copies", pg, owners[pg])
		}
		if restOwners[pg] > 1 {
			return fmt.Errorf("page %d has %d rest owners", pg, restOwners[pg])
		}
	}
	return nil
}
