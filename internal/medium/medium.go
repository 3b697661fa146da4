// Package medium defines the interconnect contract the Mether layers
// are written against: a Medium carries frames between Ports, charges a
// wire/transmission cost model in virtual time, and surfaces counters —
// without fixing whether the medium is a shared broadcast bus or a
// point-to-point fabric.
//
// Two implementations exist. internal/ethernet is the paper's shared
// 10 Mb/s broadcast segment: one serialized wire, a broadcast reaches
// every station for the price of one transmission. internal/fabric is
// an RDMA-like point-to-point medium: one transmitter per port, with
// its own queue and bandwidth, and no broadcast domain at all — a "broadcast" is a sender-paid
// unicast fan-out, charged once per destination. The protocol layers
// (core.Driver and up) run unchanged over either; which 1990 conclusions
// survive the modern medium is a sweep axis, not a rewrite.
//
// Everything the two backends would otherwise write twice lives here:
// Frame, the refcounted payload Buf with its decode-once View (kept on
// the buffer for good and invalidated as the Pool hands it out again), the
// buffer Pool, the bounded receive Ring (a frame's bytes are its
// buffer's, so a ring slot keeps only the buffer reference and the
// addresses) — and Station, the whole
// receive side of a port (ring, drop and suppressed-send counters, down
// flag, interrupt, and the one Deliver that enqueues, refcounts and
// interrupts), which ethernet.NIC and fabric.Port embed. So do the
// wire-cost pair (WireBytes, TxTime), the Stats folds and the record
// Freelist. A backend owns its transmit model and nothing else; a
// receive-side change (a trace stamp at ring enqueue, a conformance
// rule for drops or down ports) has one site.
package medium

import "time"

// Broadcast is the destination address that delivers a frame to every
// attached port except the sender. On a point-to-point medium there is
// no broadcast domain; the medium fans the frame out as one copy per
// destination and charges the sender for every copy.
const Broadcast = -1

// Medium is one interconnect instance: ports attach to it, frames move
// through it at simulated cost, and segment-wide counters come out of
// it. Implementations must be deterministic — same kernel seed and
// attach/send order, same delivery order and counters.
type Medium interface {
	// AttachPort adds a station with the medium-default receive-ring
	// capacity. intr is invoked in kernel event context whenever a frame
	// is queued into the port's receive ring.
	AttachPort(name string, intr func()) Port
	// AttachPortWithRing attaches with an explicit receive-ring bound,
	// overriding the medium default. Rings are logically bounded but
	// physically lazy: the value is a drop threshold, not an allocation.
	AttachPortWithRing(name string, intr func(), ringCap int) Port
	// Stats snapshots the medium-wide counters. Per-port drop and
	// suppression counters are folded in (summed; ring high water by
	// max).
	Stats() Stats
	// MemFootprint returns the medium's structural memory footprint in
	// bytes (rings, pools, link state) — a deterministic function of
	// simulated behaviour, never of runtime heap state, so it can enter
	// byte-identical reports.
	MemFootprint() uint64
	// PoolStats reports payload buffers ever allocated and buffers
	// currently free. A quiescent medium whose receivers release every
	// frame has the two equal; a gap is a leak. Leak-detecting tests
	// assert exactly that, on every backend.
	PoolStats() (allocated, free int)
}

// Port is one station on a medium: the driver-facing send/receive
// surface. The fault plane uses SetDown as its hook — a crashed host's
// port neither receives nor transmits, and suppressed sends are
// counted, never silently lost.
type Port interface {
	// ID is the port's dense address on its medium (attach order). On a
	// bridged Ethernet topology it is the address on the port's own
	// trunk, where each bridge NIC takes an id too: ports on different
	// trunks can share an id, so a unicast reaches only the sender's
	// trunk. No world sends a unicast: core sends every frame to
	// Broadcast.
	ID() int
	// Name is the diagnostic name given at attach.
	Name() string
	// Send transmits payload to dst (a port id or Broadcast). The call
	// returns immediately; delivery happens after the medium's queueing,
	// serialization and propagation model. The payload is copied into a
	// pooled buffer, so the caller's slice is free for reuse.
	Send(dst int, payload []byte)
	// Recv dequeues the oldest received frame, reporting false when the
	// ring is empty. The frame's payload stays valid until Release.
	Recv() (Frame, bool)
	// Rx returns the port's receive side, the Station it embeds: a
	// receiver that drains every frame (the Mether server) keeps it and
	// reads its ring with direct calls.
	Rx() *Station
	// Release hands a received frame's buffer back to the medium's pool.
	// Optional — non-releasing receivers (taps) merely opt out of
	// recycling — and at most once per received frame.
	Release(f Frame)
	// SetDown takes the station off the wire (or back on). While down it
	// neither receives nor transmits; driver state is untouched.
	SetDown(down bool)
	// Down reports whether the station is off the wire.
	Down() bool
	// Pending returns the number of frames waiting in the receive ring.
	Pending() int
	// Drops returns frames dropped because the receive ring was full.
	Drops() uint64
	// TxSuppressed returns Send calls swallowed while the port was down.
	TxSuppressed() uint64
	// RingHighWater returns the peak receive-ring occupancy reached.
	RingHighWater() int
	// RingCap returns the logical receive-ring bound.
	RingCap() int
	// MemFootprint returns the port's structural footprint in bytes (the
	// physically allocated ring, not the logical bound).
	MemFootprint() uint64
}

// Stats aggregates medium-wide counters. The first block is meaningful
// on every medium; the transmit-queue block is populated only by
// point-to-point media (a shared bus has no transmit queues) and stays
// zero on ethernet, which keeps pre-fabric reports byte-identical.
type Stats struct {
	Frames       uint64 // frames transmitted (fan-out copies included)
	WireBytes    uint64 // bytes on the wire including overhead and padding
	PayloadBytes uint64 // payload bytes only
	WireLost     uint64 // frames corrupted in transit (loss model)
	RingDrops    uint64 // per-receiver drops due to full rings
	TxSuppressed uint64 // sends swallowed because the sending port was down
	// RingHighWater is the peak receive-ring occupancy of any port on
	// the medium. Aggregated by max, never summed.
	RingHighWater int
	// BusyTime is total serialization time. On a point-to-point medium
	// every copy's transmission counts, so BusyTime may exceed wall time.
	BusyTime time.Duration

	// FanoutFrames counts the per-destination unicast copies a
	// point-to-point medium transmitted on behalf of Broadcast sends —
	// the sender-paid fan-out cost a shared bus never charges.
	FanoutFrames uint64
	// LinkOverflows counts frames dropped at a full transmit queue: every
	// copy of a send the queue refused (point-to-point media only).
	LinkOverflows uint64
	// LinkMaxQueued is the peak transmit-queue occupancy, in sends, over
	// all ports (point-to-point media only; aggregated by max).
	LinkMaxQueued int
}

// AddStation folds one station's receive-side counters into the
// medium-wide snapshot: drops and suppressed sends summed, ring high
// water by max.
func (s *Stats) AddStation(p *Station) {
	s.RingDrops += p.drops
	s.TxSuppressed += p.txSuppressed
	if hw := p.rx.HighWater(); hw > s.RingHighWater {
		s.RingHighWater = hw
	}
}

// Add folds another segment's snapshot into s (multi-trunk
// aggregation): counters and busy time summed, the two occupancy peaks
// by max.
func (s *Stats) Add(o Stats) {
	s.Frames += o.Frames
	s.WireBytes += o.WireBytes
	s.PayloadBytes += o.PayloadBytes
	s.WireLost += o.WireLost
	s.RingDrops += o.RingDrops
	s.TxSuppressed += o.TxSuppressed
	if o.RingHighWater > s.RingHighWater {
		s.RingHighWater = o.RingHighWater
	}
	s.BusyTime += o.BusyTime
	s.FanoutFrames += o.FanoutFrames
	s.LinkOverflows += o.LinkOverflows
	if o.LinkMaxQueued > s.LinkMaxQueued {
		s.LinkMaxQueued = o.LinkMaxQueued
	}
}

// WireBytes returns the on-wire size of a payload: framing overhead
// added, short frames padded to the medium's minimum.
func WireBytes(payload, overhead, minFrame int) int {
	w := payload + overhead
	if w < minFrame {
		w = minFrame
	}
	return w
}

// TxTime returns the serialization delay of one frame of the given
// on-wire size at the given signalling rate.
func TxTime(wire int, bandwidthBps int64) time.Duration {
	return time.Duration(int64(wire) * 8 * int64(time.Second) / bandwidthBps)
}
