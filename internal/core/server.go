package core

import (
	"time"

	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
)

// server is one host's Mether server: the user-level server's host task
// and the continuation of the one server loop (advance), where the loop
// stands between two charge points, the item in hand and the send it
// queued.
type server struct {
	// proc is the user-level server, a host task; unstarted in
	// kernel-server mode and before StartServer.
	proc  host.Proc
	phase phase
	// The received frame in hand, if the item is one: its buffer, held
	// until the item ends, because pkt and everything installed from it
	// alias its bytes.
	buf *medium.Buf
	// pkt is its parse, read in place: the decode-once view every
	// receiver of the transmission shares. nil for a corrupt datagram or
	// a page beyond NumPages.
	pkt *proto.Packet
	st  *pageState // the item's page; nil for a frame lazily skipped
	// The send the item queued (transmit), encoded in txBuf[:sendLen]:
	// its CPU cost, and what the handler does once it is on the wire.
	sendLen  int
	sendCost time.Duration
	then     afterSend
	to       int16 // its OwnerTo: whom thenOwnerLeaves, thenRestLeaves granted
	short    bool  // its Short: thenOwnerLeaves keeps the rest authority
}

// phase is the charge point the server loop is at.
type phase uint8

const (
	phaseIdle  phase = iota // between items
	phaseFrame              // paying for a received frame's handling
	phaseSend               // paying for the item's send
)

// afterSend names what a handler does after its packet is on the wire.
// A handler cannot simply continue past transmit, since the send's cost
// is charged between the encode and the wire, so it leaves its epilogue
// here by name (a closure would allocate per send).
type afterSend uint8

const (
	thenNothing     afterSend = iota
	thenClaimed               // serveClaim
	thenArmRetry              // sendRequest
	thenDoPurge               // servePurge
	thenOwnerLeaves           // serveRequest granting the consistent copy
	thenRestLeaves            // serveRestRequest granting the remainder
)

// StartServer spawns the host's user-level Mether server (a no-op in
// kernel-server mode, where FrameArrived and enqueueWork drive
// interrupt-level processing directly). The server is an ordinary
// timesharing process — which is the point: it competes for the CPU
// with the application, and a spinning client starves it. It drains the
// NIC receive ring and the driver work queue, sleeping when both are
// empty. It is a host task, not a coroutine: it wakes once per snooped
// frame, and a task takes the same CPU at the same instants without a
// coroutine switch per wake (the simulator's own share of the paper's
// "context switches required to receive a new page", kernel.go).
func (d *Driver) StartServer() {
	if d.cfg.KernelServer {
		return
	}
	d.h.StartTask(&d.server.proc, "metherd", d.step)
}

// step is the user-level server's body: the loop runs on to its next
// charge point, passing the transitions that charge nothing, which the
// scheduler would serve at once.
func (d *Driver) step() host.Want {
	for {
		cost, ok := d.advance()
		if !ok {
			break
		}
		if cost > 0 {
			return host.UseCPU(cost, host.CPUSys)
		}
	}
	return host.WaitOn(&d.serverQ)
}

// Server returns the server process (nil before StartServer, and in
// kernel-server mode).
func (d *Driver) Server() *host.Proc {
	if d.server.proc.Host() == nil {
		return nil
	}
	return &d.server.proc
}

// advance is the server loop, one transition per call: it runs the
// server to its next charge point and returns the CPU to charge there;
// ok is false when there is none because both queues are empty. An item
// is one received frame if any, else one driver work item, and passes
// through up to three phases: idle, the frame's handling cost, the cost
// of the one send it may make. A transition that ends an item returns a
// zero cost. The user-level server and the kernel server are this loop
// under two charging policies: the task hands each cost to the host
// scheduler and comes back when it has had that much CPU; the kernel
// (kernelStep) sums one item's costs and delays the next item by them.
// Either way each effect keeps its place relative to the charges: the
// parse before the receive charge and the page lookup after it, the
// encode before the send charge and the wire and the handler's epilogue
// after it, the frame released last; a Crash during a charge finds the
// item in hand finished against the wiped state.
func (d *Driver) advance() (cost time.Duration, ok bool) {
	s := &d.server
	switch s.phase {
	case phaseIdle:
		if f, ok := d.rx.Recv(); ok {
			// The parse goes through the buffer's decode-once view (view.go):
			// for a broadcast, only the first of the N receiving servers
			// actually parses the header, but every receiver still pays its
			// own simulated handling cost. A corrupt datagram, or a
			// well-formed one naming a page beyond the configured space, is
			// charged minimal handling and dropped.
			s.buf, s.phase = f.Buf, phaseFrame
			pkt, err := decodeFrame(f)
			if err != nil || int(pkt.Page) >= d.cfg.NumPages {
				return d.cfg.PacketCost, true
			}
			s.pkt = pkt
			return d.cfg.PacketCost + time.Duration(len(pkt.Data))*d.cfg.ByteCost, true
		}
		w, ok := d.dequeueWork()
		if !ok {
			return 0, false
		}
		d.handleWork(w)
	case phaseFrame:
		if s.pkt != nil {
			d.handleFrame(s.pkt)
		}
	case phaseSend:
		d.nic.Send(medium.Broadcast, d.txBuf[:s.sendLen])
		s.sendLen = 0
		d.sent()
	}
	if s.sendLen > 0 {
		s.phase = phaseSend
		return s.sendCost, true
	}
	if s.buf != nil {
		if s.pkt != nil && s.pkt.Type == proto.TypeRequest && s.st != nil {
			d.queueRedundant(s.st, s.pkt)
		}
		// Everything needed from the frame has been copied into page
		// frames, so the wire buffer can be recycled.
		d.nic.Release(medium.Frame{Buf: s.buf})
		s.buf, s.pkt = nil, nil
	}
	s.st, s.phase = nil, phaseIdle
	return 0, true
}

// sent is the second half of the handler whose packet just went out.
func (d *Driver) sent() {
	s := &d.server
	st := s.st
	switch s.then {
	case thenClaimed:
		d.clearRetryIfDone(st)
		d.h.WakeupQ(&st.waitQ)
	case thenArmRetry:
		d.armRetry(st)
	case thenDoPurge:
		// DO-PURGE: clear purge pending and wake the waiting process.
		st.purgePending = false
		d.flushDeferred(st)
		d.h.WakeupQ(&st.purgeQ)
	case thenOwnerLeaves:
		// The consistent copy leaves; our bytes stay resident as an
		// inconsistent copy (writable mappings will fault from now on).
		st.owner = false
		st.grantedTo = s.to
		if !s.short {
			st.restOwner = false
			st.grantedRestTo = s.to
		}
	case thenRestLeaves:
		st.restOwner = false
		st.grantedRestTo = s.to
	}
	s.then = thenNothing
}

// handleWork processes one driver-originated work item.
func (d *Driver) handleWork(w workItem) {
	st := d.page(w.page)
	d.server.st = st
	switch w.kind {
	case workSendReq:
		d.sendRequest(st)
	case workPurge:
		d.servePurge(st)
	case workRedeliver:
		if w.req.rest {
			d.serveRestRequest(st, w.req.from, w.req.reqID)
		} else {
			d.serveRequest(st, w.req)
		}
	case workRedundant:
		d.serveRedundant(st, w.req, w.seq)
	case workClaim:
		d.serveClaim(st)
	}
}

// serveClaim re-mints authority over an orphaned page: ClaimRetries
// retries went unanswered, so the owner is gone and this host promotes
// its copy (possibly the flyweight zeros of a cold replica) to the
// consistent copy at a bumped generation, then broadcasts the claim.
// The bump is the ghost fence's other half: a recovered ghost restarts
// at generation zero and everCrashed, so it can never outrank or
// re-adopt the claimed line. The claim broadcast is distinguishable on
// the wire (Consistent with OwnerTo == From — a self-grant no ordinary
// serve ever produces), which is what lets two racing claimants
// arbitrate deterministically in handleData. Everything is re-checked
// first: data or a grant may have landed between the retry timer
// and this work item.
func (d *Driver) serveClaim(st *pageState) {
	st.claimTries = 0
	if d.cfg.ClaimRetries <= 0 || !st.wantsAnything() {
		return
	}
	if st.owner {
		// Only the rest authority is orphaned (ownership arrived via a
		// short transfer and the rest owner crashed). Re-mint it locally:
		// rest authority is not snooped, so there is nothing to
		// broadcast, and the crashed rest owner's wiped state cannot
		// conflict.
		if st.wantRest && !st.restOwner {
			st.restOwner = true
			st.restPresent = true
			st.wantRest = false
			st.grantedRestTo = proto.NoOwner
			d.m.OrphanRecoveries++
			d.noteRejoin()
			d.clearRetryIfDone(st)
			d.h.WakeupQ(&st.waitQ)
		}
		return
	}
	st.frame.SetGen(st.frame.Gen() + 1)
	st.owner = true
	st.restOwner = true
	st.shortPresent = true
	st.restPresent = true
	st.grantedTo = proto.NoOwner
	st.grantedRestTo = proto.NoOwner
	st.installedAt = d.h.Kernel().Now()
	st.wantShort, st.wantRest, st.wantConsistent = false, false, false
	d.m.OrphanRecoveries++
	d.noteRejoin()
	pkt := proto.Packet{
		Type:       proto.TypeData,
		Page:       st.page,
		Short:      true,
		Consistent: true,
		From:       d.id,
		OwnerTo:    d.id,
		Gen:        uint32(st.frame.Gen()),
		Data:       st.frame.Region(true),
	}
	d.m.DataSent++
	d.transmit(pkt, thenClaimed)
}

// sendRequest transmits the demand request implied by the page's want
// bits and arms the retransmit timer.
func (d *Driver) sendRequest(st *pageState) {
	if !st.wantsAnything() {
		st.reqInFlight = false
		return
	}
	st.reqAskedCons = st.wantConsistent
	st.reqAskedRest = st.wantRest
	var pkt proto.Packet
	if st.owner && st.wantRest && !st.wantConsistent && !st.wantShort {
		// We hold the consistent copy but need the authoritative
		// remainder (ownership arrived via a short transfer).
		pkt = proto.Packet{Type: proto.TypeRestRequest, Page: st.page, From: d.id, OwnerTo: proto.NoOwner, ReqID: st.reqID}
	} else {
		pkt = proto.Packet{
			Type:       proto.TypeRequest,
			Page:       st.page,
			Short:      !st.wantRest,
			Consistent: st.wantConsistent,
			From:       d.id,
			OwnerTo:    proto.NoOwner,
			ReqID:      st.reqID,
		}
		// Redundant fetch: a read fault additionally names the k-1
		// nearest replicas as extra targets, trading a few wire bytes
		// for a chance that a replica's answer beats (or survives the
		// loss of) the owner's. Ownership requests never fan out — only
		// the owner can grant the consistent copy.
		if k := d.cfg.Redundancy; k > 1 && !pkt.Consistent {
			if targets := d.redundantTargets(k - 1); len(targets) > 0 {
				pkt.Data = targets
				d.m.RedundantReqs++
			}
		}
	}
	st.reqID++
	d.m.RequestsSent++
	d.transmit(pkt, thenArmRetry)
}

// armRetry schedules a retransmit if the wants are still outstanding
// after the retry timeout. Mether runs over unreliable datagrams:
// requests, replies and grants can all be lost, and the demand path must
// recover on its own. While the NIC is down every send is suppressed
// anyway, so the timeout backs off exponentially — capped at the larger
// of MinResidency and 32x the base timeout (the default residency is
// smaller than one retry, which would make a residency-only cap a
// no-op) — instead of spinning the event kernel hot for the whole
// outage; the first up-NIC arm resets the backoff.
func (d *Driver) armRetry(st *pageState) {
	d.cancelRetry(st)
	to := d.cfg.RetryTimeout
	if d.nic.Down() {
		limit := d.cfg.MinResidency
		if m := 32 * d.cfg.RetryTimeout; limit < m {
			limit = m
		}
		to <<= st.backoff
		if to >= limit {
			to = limit
		} else if st.backoff < 8 {
			st.backoff++
		}
	} else {
		st.backoff = 0
	}
	rt := d.retryFree
	if rt != nil {
		d.retryFree = rt.next
		rt.next = nil
	} else {
		rt = &retryTimer{d: d}
		rt.fn = rt.fire
	}
	rt.st = st
	rt.ev = d.h.Kernel().After(to, "mether retry", rt.fn)
	st.retry = rt
}

// retryTimer is one armed retransmit timer: the page it retries, its
// kernel event, and a closure built once (when the timer is first
// allocated) so re-arming from the driver's freelist allocates nothing.
// A timer returns to the freelist when it fires or is cancelled.
type retryTimer struct {
	d    *Driver
	st   *pageState
	ev   *sim.Event
	fn   func()
	next *retryTimer // freelist link
}

// free returns the timer to its driver's freelist.
func (rt *retryTimer) free() {
	d := rt.d
	rt.st, rt.ev = nil, nil
	rt.next = d.retryFree
	d.retryFree = rt
}

// fire is the retry timeout: the timer goes back to the freelist first,
// then the page's wants are retried (or claimed).
func (rt *retryTimer) fire() {
	d, st := rt.d, rt.st
	st.retry = nil
	rt.free()
	if !st.wantsAnything() {
		st.reqInFlight = false
		return
	}
	d.m.Retries++
	// Orphaned-ownership detection: an owner that answers nothing for
	// ClaimRetries consecutive retries has crashed, and its authority
	// must be re-minted or the want livelocks. Suppressed sends teach
	// nothing (the request never reached the wire), so a down NIC
	// never advances the count.
	if d.cfg.ClaimRetries > 0 && !d.nic.Down() {
		st.claimTries++
		if int(st.claimTries) >= d.cfg.ClaimRetries {
			d.enqueueWork(workItem{kind: workClaim, page: st.page})
			return
		}
	}
	d.enqueueWork(workItem{kind: workSendReq, page: st.page})
}

// cancelRetry stops the page's retry timer, if one is armed, and
// returns it to the freelist.
func (d *Driver) cancelRetry(st *pageState) {
	if rt := st.retry; rt != nil {
		rt.ev.Cancel()
		st.retry = nil
		rt.free()
	}
}

// clearRetryIfDone cancels the retransmit timer once nothing is wanted.
// Satisfied wants also reset the claim counter: the cluster answered,
// so the owner is alive.
func (d *Driver) clearRetryIfDone(st *pageState) {
	st.claimTries = 0
	if st.wantsAnything() {
		return
	}
	st.reqInFlight = false
	d.cancelRetry(st)
}

// servePurge broadcasts a read-only copy of a purge-pending page and
// issues DO-PURGE, waking the blocked purger.
func (d *Driver) servePurge(st *pageState) {
	if !st.purgePending {
		return
	}
	d.m.PurgeSends++
	d.sendData(st, st.purgeShort, proto.NoOwner, thenDoPurge)
}

// serveRequest answers a remote demand request if this host can.
func (d *Driver) serveRequest(st *pageState, r deferredReq) {
	if !st.owner {
		// Ownership-grant retransmit: if we granted the consistent copy
		// to this very requester and it is still asking, the grant was
		// lost on the wire — resend it (idempotent at the receiver).
		// Rest authority rides along only if it was granted to the same
		// host; otherwise resend the short grant alone.
		if r.cons && st.grantedTo == r.from && st.shortPresent {
			short := r.short || !st.restPresent || st.grantedRestTo != r.from
			d.sendData(st, short, int(r.from), thenNothing)
		}
		return
	}
	if st.locked || st.purgePending {
		d.m.Deferred++
		st.deferred = append(st.deferred, r)
		return
	}
	if r.cons {
		// Anti-thrash holdoff: a freshly arrived consistent copy must
		// stay long enough for the local client to use it once.
		if held := d.h.Kernel().Now() - st.installedAt; held < d.cfg.MinResidency {
			d.m.HoldOffs++
			rr := r
			d.h.Kernel().AfterCoalesced(d.cfg.MinResidency-held, "mether holdoff", func() {
				d.enqueueWork(workItem{kind: workRedeliver, page: st.page, req: rr})
			})
			return
		}
	}
	short := r.short
	if !short && !st.restPresent {
		// Asked for the full page but the remainder lives elsewhere:
		// serve the short page plus ownership; the requester will
		// rest-fetch from the rest owner.
		short = true
	}
	if r.cons && !short && !st.restOwner {
		// We hold stale rest bytes but not the rest authority: a full
		// consistency grant would mint a second rest owner. Grant the
		// short region only.
		short = true
	}
	ownerTo, then := proto.NoOwner, thenNothing
	if r.cons {
		// Once the grant is on the wire the consistent copy leaves (sent).
		ownerTo, then = int(r.from), thenOwnerLeaves
	}
	d.sendData(st, short, ownerTo, then)
}

// serveRedundant answers a redundant fetch that named this replica as
// an extra target. First-response-wins is enforced here on the loser's
// side: seq snapshots the page's transit count at request arrival, and
// any transit since — almost always the winning reply, which the serve
// loops drain before work items — suppresses the answer instead of
// putting a duplicate broadcast on the wire. A replica that does answer
// sends a plain refresh (no ownership), so even a stale-but-resident
// copy can only ever be dropped by the requester's generation check,
// never regress a fresher winner.
func (d *Driver) serveRedundant(st *pageState, r deferredReq, seq uint64) {
	if st.transitSeq != seq {
		d.m.RedundantSuppressed++
		return
	}
	// Became owner since (the request raced an ownership transfer): the
	// owner path answers retransmits. Serve strictly within what is
	// resident; a replica missing the remainder leaves a full-extent
	// fetch to the owner rather than answering with a partial view.
	if st.owner || !st.shortPresent || (!r.short && !st.restPresent) || st.locked || st.purgePending {
		return
	}
	d.m.RedundantServes++
	d.sendData(st, r.short, proto.NoOwner, thenNothing)
}

// sendData broadcasts page bytes (the only way data ever moves). Every
// TypeData transit refreshes all resident copies cluster-wide. The
// payload aliases the page frame (no snapshot copy): transmit encodes
// it into the scratch buffer before anything else can run.
func (d *Driver) sendData(st *pageState, short bool, ownerTo int, then afterSend) {
	pkt := proto.Packet{
		Type:    proto.TypeData,
		Page:    st.page,
		Short:   short,
		From:    d.id,
		OwnerTo: int16(ownerTo),
		Gen:     uint32(st.frame.Gen()),
		Data:    st.frame.Region(short),
	}
	d.m.DataSent++
	d.transmit(pkt, then)
}

// transmit encodes one packet and queues its send: advance charges the
// server's CPU cost for it, then puts it on the wire and runs then (see
// sent). An item sends at most once. Encoding reuses the driver's
// scratch buffer; the NIC copies the bytes into its pooled wire buffer,
// so the scratch is free for the next send as soon as Send returns.
func (d *Driver) transmit(pkt proto.Packet, then afterSend) {
	buf, err := proto.AppendEncode(d.txBuf[:0], pkt)
	if err != nil {
		panic("core: internal packet encode failure: " + err.Error())
	}
	d.txBuf = buf[:0]
	s := &d.server
	s.sendLen, s.then, s.to, s.short = len(buf), then, pkt.OwnerTo, pkt.Short
	s.sendCost = d.cfg.PacketCost + time.Duration(len(pkt.Data))*d.cfg.ByteCost
}

// handleFrame processes one received, well-formed datagram whose
// handling cost has been charged.
func (d *Driver) handleFrame(pkt *proto.Packet) {
	var st *pageState
	if d.cfg.LazyReplicas {
		if st = d.lazyLookup(pkt); st == nil {
			return
		}
	} else {
		st = d.page(pkt.Page)
	}
	d.server.st = st
	switch pkt.Type {
	case proto.TypeRequest:
		// The redundant-target check (queueRedundant) follows at the end
		// of the item, after the answer serveRequest may queue is sent.
		d.serveRequest(st, requestOf(pkt))
	case proto.TypeData:
		d.handleData(st, pkt)
	case proto.TypeRestRequest:
		d.serveRestRequest(st, pkt.From, pkt.ReqID)
	case proto.TypeRestData:
		d.handleRestData(st, pkt)
	}
}

// queueRedundant ends the handling of a request frame. A redundant fetch
// that names this replica as an extra target: queue the answer with a
// transit-count snapshot so it can be suppressed if the owner's (or
// another replica's) reply covers the page first. The owner path
// (serveRequest) already answered, so a targeted owner adds nothing.
func (d *Driver) queueRedundant(st *pageState, pkt *proto.Packet) {
	if len(pkt.Data) > 0 && !pkt.Consistent && !st.owner &&
		pkt.From != d.id && proto.HasTarget(pkt.Data, d.id) {
		d.enqueueWork(workItem{kind: workRedundant, page: st.page, req: requestOf(pkt), seq: st.transitSeq})
	}
}

// requestOf is what a request frame asks, in the form it is deferred in.
func requestOf(pkt *proto.Packet) deferredReq {
	return deferredReq{from: pkt.From, short: pkt.Short, cons: pkt.Consistent, reqID: pkt.ReqID}
}

// lazyLookup resolves a received packet's page state without
// materializing state for pages this host has never touched
// (Config.LazyReplicas). The handling cost has already been charged —
// every station still ingests every broadcast — so the skip is
// memory-only. An unmaterialized page implies, by construction: not
// owner, not rest owner, nothing granted from here, no local waiters.
// Under those facts each packet type's handler is a no-op unless the
// frame is addressed to this host (a grant answering our own request,
// which MapIn/fault paths materialize before sending) or names it as a
// redundant-fetch target; only those materialize. Unaddressed TypeData
// transits are noted in the transit bitmap so a later materialization
// still observes that the page transited (the purge→data-fault race
// detector compares transit counts for equality only).
func (d *Driver) lazyLookup(pkt *proto.Packet) *pageState {
	if st := d.peek(pkt.Page); st != nil {
		return st
	}
	switch pkt.Type {
	case proto.TypeRequest:
		if len(pkt.Data) > 0 && !pkt.Consistent && pkt.From != d.id && proto.HasTarget(pkt.Data, d.id) {
			return d.page(pkt.Page)
		}
	case proto.TypeData:
		if pkt.OwnerTo == d.id {
			return d.page(pkt.Page)
		}
		d.noteTransit(pkt.Page)
	case proto.TypeRestData:
		if pkt.OwnerTo == d.id {
			return d.page(pkt.Page)
		}
	}
	return nil
}

// handleData implements the snoopy receive path for page broadcasts.
func (d *Driver) handleData(st *pageState, pkt *proto.Packet) {
	st.transitSeq++
	gen := uint64(pkt.Gen)
	toMe := pkt.OwnerTo == d.id
	// A claim is a self-grant (Consistent with OwnerTo == From): the
	// sender re-minted an orphaned page's authority. No ordinary serve
	// produces this shape, so it only appears in fault worlds with
	// claiming armed.
	claim := pkt.Consistent && pkt.OwnerTo == pkt.From
	switch {
	case toMe && d.everCrashed && !st.wantConsistent:
		// Ghost fence: this host crashed at least once, so a grant it is
		// not currently asking for is pre-crash wreckage — a retransmit or
		// in-flight grant from before the crash, replayed at a host whose
		// state restarted at generation zero. The generation comparison
		// below is useless after the reset (everything outranks zero), so
		// the want qualification alone decides: adopting would re-mint the
		// authority the cluster has since re-claimed. This extends the
		// want-qualified adopt-or-drop rule to crashed hosts.
		d.m.StaleDrops++
		d.m.GhostDrops++
	case toMe && gen < st.frame.Gen() && !st.wantConsistent:
		// A late or duplicate ownership grant (grants are retransmitted
		// because they can be lost, and a reply answered after
		// RetryTimeout races the retry's answer). wantConsistent clears
		// only when a grant is adopted, so no-want plus an older
		// generation proves this is a leftover copy of a grant we
		// already adopted: installing it would regress the bytes and —
		// if we wrote through the first copy and granted ownership
		// onward since — mint a second consistent copy. The want check
		// is what makes this safe: a grant that answers an outstanding
		// fault is adopted even when snooped refreshes have pushed our
		// replica's generation past it, because it carries the cluster's
		// only ownership token and refusing it would strand the page
		// with no owner at all.
		d.m.StaleDrops++
		d.m.LateGrantDrops++
	case toMe:
		// Ownership transfer addressed to us: install.
		if st.frame.Install(pkt.Data, gen) != nil {
			return
		}
		st.owner = true
		st.grantedTo = proto.NoOwner
		st.installedAt = d.h.Kernel().Now()
		st.shortPresent = true
		st.wantShort = false
		st.wantConsistent = false
		if !pkt.Short {
			st.restPresent = true
			st.restOwner = true
			st.grantedRestTo = proto.NoOwner
			st.wantRest = false
		}
		d.m.Installs++
		d.noteRejoin()
		d.clearRetryIfDone(st)
	case st.owner && claim:
		// A rival claim while we hold the consistent copy: two requesters
		// crossed the claim threshold in flight (or our own claim raced
		// theirs). Exactly one may survive. The comparison is
		// antisymmetric — higher generation wins, ties go to the lower
		// host id — so of any racing pair, one side yields on receiving
		// the other's claim and the other side drops the loser's claim as
		// stale below.
		if gen > st.frame.Gen() || (gen == st.frame.Gen() && pkt.From < d.id) {
			if st.frame.Install(pkt.Data, gen) != nil {
				return
			}
			st.owner = false
			st.restOwner = false
			st.grantedTo = proto.NoOwner
			st.grantedRestTo = proto.NoOwner
		} else {
			d.m.StaleDrops++
		}
	case st.owner:
		// We hold the consistent copy: a passing transit never clobbers it.
		d.m.StaleDrops++
	case gen >= st.frame.Gen():
		wanted := st.wantShort || (st.wantRest && !pkt.Short)
		switch {
		case wanted || st.dataWaiters > 0:
			// Satisfy demand waiters (non-consistent needs) and
			// data-driven sleepers: install the covered region.
			if st.frame.Install(pkt.Data, gen) != nil {
				return
			}
			st.shortPresent = true
			st.wantShort = false
			if !pkt.Short {
				st.restPresent = true
				st.wantRest = false
			}
			d.m.Installs++
			d.noteRejoin()
			d.clearRetryIfDone(st)
		case st.shortPresent:
			// Snoopy refresh of a resident inconsistent copy.
			if st.frame.Install(pkt.Data, gen) != nil {
				return
			}
			if !pkt.Short {
				st.restPresent = true
			}
			d.m.Refreshes++
		}
	default:
		d.m.StaleDrops++
		d.noteCrossTrunkStale(pkt.From)
	}
	// Every transit wakes the page's waiters: data-driven sleepers must
	// observe every passing copy (they compare generations themselves),
	// and demand waiters re-check their needs.
	d.h.WakeupQ(&st.waitQ)
}

// noteCrossTrunkStale counts a generation-regressed broadcast whose
// sender sits on another trunk: bridge queues delivered it after a newer
// copy had already landed here. This is the paper's "purges don't cross
// bridges consistently" hazard made measurable — on a single trunk the
// serialized medium makes such reordering impossible, so the counter
// stays zero there by construction.
func (d *Driver) noteCrossTrunkStale(from int16) {
	if d.hops != nil && from >= 0 && int(from) < d.hosts && d.hops(int(from), d.h.ID()) > 0 {
		d.m.CrossTrunkStale++
	}
}

// serveRestRequest answers a remainder fetch if we hold the authority.
func (d *Driver) serveRestRequest(st *pageState, from int16, reqID uint16) {
	if !st.restOwner {
		if st.grantedRestTo == from && st.restPresent {
			// Lost rest-grant retransmit.
			d.sendRestData(st, from, thenNothing)
		}
		return
	}
	if st.locked || st.purgePending {
		d.m.Deferred++
		st.deferred = append(st.deferred, deferredReq{from: from, rest: true, reqID: reqID})
		return
	}
	d.sendRestData(st, from, thenRestLeaves)
}

func (d *Driver) sendRestData(st *pageState, to int16, then afterSend) {
	out := proto.Packet{
		Type:    proto.TypeRestData,
		Page:    st.page,
		From:    d.id,
		OwnerTo: to,
		Gen:     uint32(st.frame.Gen()),
		Data:    st.frame.RestRegion(),
	}
	d.m.RestSent++
	d.transmit(out, then)
}

// handleRestData installs or refreshes the superset remainder.
func (d *Driver) handleRestData(st *pageState, pkt *proto.Packet) {
	if pkt.OwnerTo == d.id {
		if d.everCrashed && !st.wantRest {
			// Ghost fence, rest flavour: a crashed host adopts no rest
			// grant it is not currently asking for — it is pre-crash
			// wreckage, and the authority it carries has been re-minted
			// by a claim since. See handleData's fence.
			d.m.GhostDrops++
			d.h.WakeupQ(&st.waitQ)
			return
		}
		if !st.wantRest && st.restOwner {
			// A late or duplicate rest grant. With no ask outstanding
			// and the rest authority already here, an earlier copy of
			// this grant was provably adopted: installing this one
			// would clobber rest writes made since. Every other no-want
			// case still adopts — most importantly when a full-page
			// broadcast satisfied wantRest while the grant was in
			// flight, where dropping would lose the authority the
			// granter has already released.
			d.m.LateGrantDrops++
			d.h.WakeupQ(&st.waitQ)
			return
		}
		if st.frame.InstallRest(pkt.Data) != nil {
			return
		}
		st.restPresent = true
		st.restOwner = true
		st.grantedRestTo = proto.NoOwner
		st.wantRest = false
		d.m.Installs++
		d.noteRejoin()
		d.clearRetryIfDone(st)
	} else if st.restPresent && !st.restOwner {
		if st.frame.InstallRest(pkt.Data) != nil {
			return
		}
		d.m.Refreshes++
	}
	d.h.WakeupQ(&st.waitQ)
}
