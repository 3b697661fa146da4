// Package ethernet simulates a shared 10 Mb/s broadcast Ethernet segment
// of the kind Mether ran on: a single serialized medium with per-frame
// framing overhead, propagation delay, optional random frame loss, and
// finite per-NIC receive rings whose overflow silently drops frames. It
// is the first implementation of the medium contract (internal/medium):
// core.Driver and the world builder talk to it through medium.Medium and
// medium.Port, never through the concrete types.
//
// The model is deliberately simple — frames are serialized in FIFO order
// rather than via CSMA/CD contention — because the paper's protocols are
// sensitive to bandwidth, per-packet cost, broadcast fan-out and loss,
// not to collision micro-behaviour.
//
// This package owns only the transmit model: one serialized wire, FIFO
// behind busyUntil, a single loss roll and one delivery event per
// frame. The receive side — ring, drop and suppression counters, down
// flag, interrupt — is medium.Station, embedded by NIC and shared with
// the fabric.
//
// The data path is pooled: payload buffers are refcounted and recycled
// through a per-bus freelist (medium.Pool), and each NIC's receive ring
// is a bounded circular buffer (medium.Ring), so steady-state traffic
// does not allocate. Receivers that are done with a frame should hand it
// back with NIC.Release; receivers that never release (taps, tests)
// merely opt out of recycling — the shared buffer is garbage collected
// once every holder drops it.
package ethernet

import (
	"fmt"
	"time"
	"unsafe"

	"mether/internal/medium"
	"mether/internal/sim"
)

// Params configures the simulated segment. The zero value is not useful;
// start from DefaultParams.
type Params struct {
	// BandwidthBps is the raw signalling rate in bits per second.
	BandwidthBps int64
	// PropDelay is the propagation delay from transmitter to every
	// receiver.
	PropDelay time.Duration
	// FrameOverhead is the per-frame byte overhead added to the payload
	// on the wire (Ethernet header+FCS plus IP/UDP headers: Mether used
	// UDP/IP datagrams).
	FrameOverhead int
	// MinFrameBytes is the minimum wire size of a frame; shorter frames
	// are padded (affects timing and wire-byte accounting).
	MinFrameBytes int
	// InterFrameGap is idle time enforced between frames.
	InterFrameGap time.Duration
	// LossRate is the probability that a transmitted frame is corrupted
	// and delivered to no receiver.
	LossRate float64
	// RxRing is the per-NIC receive ring capacity; arrivals beyond it
	// are dropped (receiver overrun, the era's common loss mode).
	RxRing int
}

// DefaultParams returns the 10 Mb/s Ethernet + UDP/IP model used for the
// paper reproduction: 46 bytes of header overhead (18 Ethernet + 20 IP +
// 8 UDP), 64-byte minimum frames and a 32-frame receive ring.
func DefaultParams() Params {
	return Params{
		BandwidthBps:  10_000_000,
		PropDelay:     50 * time.Microsecond,
		FrameOverhead: 46,
		MinFrameBytes: 64,
		InterFrameGap: 10 * time.Microsecond,
		LossRate:      0,
		RxRing:        32,
	}
}

// wireStats is the segment's own counter block. It deliberately holds
// only the fields a shared bus produces — the medium.Stats link-queue
// block exists for point-to-point media and stays zero here — so the
// Bus struct (whose size enters MemFootprint and therefore gated
// reports) does not grow when the shared Stats type does.
type wireStats struct {
	Frames        uint64
	WireBytes     uint64
	PayloadBytes  uint64
	WireLost      uint64
	RingDrops     uint64
	TxSuppressed  uint64
	RingHighWater int
	BusyTime      time.Duration
}

// Bus is one shared segment. Attach NICs before sending. NIC ids are
// dense indexes into the attach order, so the id→NIC lookup that makes
// unicast delivery O(1) is the nics slice itself.
type Bus struct {
	k         *sim.Kernel
	p         Params
	nics      []*NIC
	busyUntil time.Duration
	stats     wireStats
	pool      medium.Pool               // shared payload buffers (refcounted, recycled)
	freeDeliv medium.Freelist[delivery] // delivery-event pool
}

// Bus and NIC implement the medium contract.
var (
	_ medium.Medium = (*Bus)(nil)
	_ medium.Port   = (*NIC)(nil)
)

// delivery is a pooled in-flight transmission: the frame plus two
// pre-built event closures — one per delivery shape — so Send schedules
// either path without allocating. Unicast resolves its single receiver
// by indexed lookup; only broadcast still walks the stations.
type delivery struct {
	b    *Bus
	f    medium.Frame
	lost bool
	// fnU completes a unicast (single indexed receiver); fnB completes a
	// broadcast (fan-out over every attached NIC).
	fnU func()
	fnB func()
}

// NewBus creates a segment driven by kernel k.
func NewBus(k *sim.Kernel, p Params) *Bus {
	// Invariant: the wire serializes a frame in finite time.
	// Config.Validate refuses a non-positive bandwidth before a world
	// builds a bus, so only a direct caller can reach this.
	if p.BandwidthBps <= 0 {
		panic("ethernet: BandwidthBps must be positive")
	}
	return &Bus{k: k, p: p}
}

// Params returns the segment's configuration.
func (b *Bus) Params() Params { return b.p }

// Stats returns a snapshot of the segment counters. Ring drops and
// suppressed transmissions are summed over all NICs; the ring high-water
// mark is the max. The transmit-queue fields of medium.Stats are always
// zero: a shared bus has no transmit queues and pays no fan-out.
func (b *Bus) Stats() medium.Stats {
	s := medium.Stats{
		Frames:        b.stats.Frames,
		WireBytes:     b.stats.WireBytes,
		PayloadBytes:  b.stats.PayloadBytes,
		WireLost:      b.stats.WireLost,
		RingDrops:     b.stats.RingDrops,
		TxSuppressed:  b.stats.TxSuppressed,
		RingHighWater: b.stats.RingHighWater,
		BusyTime:      b.stats.BusyTime,
	}
	for _, n := range b.nics {
		s.AddStation(&n.Station)
	}
	return s
}

// Utilization returns the fraction of wall time the wire was busy.
func (b *Bus) Utilization(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(b.stats.BusyTime) / float64(wall)
}

// MemFootprint returns the segment's structural memory footprint in
// bytes: every NIC's physically allocated ring plus the pooled payload
// buffers and delivery records currently on the freelists. Like the
// driver's footprint walk it is a deterministic function of simulated
// behaviour, never of runtime heap state.
func (b *Bus) MemFootprint() uint64 {
	m := uint64(unsafe.Sizeof(*b))
	for _, n := range b.nics {
		m += uint64(unsafe.Sizeof(n)) + n.MemFootprint()
	}
	m += b.pool.MemFootprint()
	m += b.freeDeliv.MemFootprint()
	return m
}

// PoolStats reports the payload-buffer pool's bookkeeping: buffers ever
// allocated and buffers currently on the freelist. On a quiescent bus
// whose receivers release every frame they consume the two are equal;
// a gap is a leaked (never-released) buffer. Leak-detecting tests
// assert exactly that across protocol exchanges.
func (b *Bus) PoolStats() (allocated, free int) {
	return b.pool.Stats()
}

// AttachPort adds a NIC to the segment with the segment-default ring
// capacity (Params.RxRing). intr is invoked in kernel event context
// whenever a frame is queued into the NIC's receive ring; it is
// typically wired to a host interrupt that wakes the Mether server.
func (b *Bus) AttachPort(name string, intr func()) medium.Port {
	return b.AttachPortWithRing(name, intr, b.p.RxRing)
}

// AttachPortWithRing adds a NIC with an explicit receive-ring capacity,
// overriding the segment default. Only hosts that see fan-in bursts
// (owners and servers at the large tiers) need deep rings; sizing by
// role keeps a world's ring memory proportional to its real fan-in
// instead of hosts × uniform-worst-case.
func (b *Bus) AttachPortWithRing(name string, intr func(), ringCap int) medium.Port {
	n := new(NIC)
	b.Join(n, name, intr, ringCap)
	return n
}

// Join is AttachPortWithRing in place: it makes n, which must be the
// zero NIC, the segment's next NIC. A world keeps its hosts' NICs in one
// slice, in host order, and joins each where it lies.
func (b *Bus) Join(n *NIC, name string, intr func(), ringCap int) {
	n.bus, n.Station = b, medium.NewStation(len(b.nics), name, intr, ringCap)
	b.nics = append(b.nics, n)
}

// NICs returns the segment's stations in attach order (hosts, bridge
// ports, taps), each at the index that is its id.
func (b *Bus) NICs() []*NIC { return b.nics }

// NIC is one station on the segment; it implements medium.Port. The
// receive side is the embedded medium.Station; the NIC adds the wire it
// transmits on.
type NIC struct {
	bus *Bus
	medium.Station
}

// MemFootprint returns the NIC's structural memory footprint in bytes
// (the physically allocated ring slots — the lazily grown array, not
// the logical bound).
func (n *NIC) MemFootprint() uint64 {
	return uint64(unsafe.Sizeof(*n)) + n.RingFootprint()
}

// Release returns a received frame's payload buffer to the segment's
// pool once this receiver is done with it. Calling it is optional —
// receivers that retain payloads (taps, bridges mid-forward) simply
// leave the buffer to the garbage collector — but the Mether server
// releases every frame it consumes, which is what makes the receive
// path allocation-free. Release must be called at most once per
// received frame, after which the payload must not be touched.
func (n *NIC) Release(f medium.Frame) {
	n.bus.pool.Release(f.Buf)
}

// Send transmits payload from this NIC to dst (a NIC id or
// medium.Broadcast).
// The call returns immediately; delivery happens after the medium frees
// up, serialization and propagation. The payload is copied into a pooled
// buffer shared by all receivers. A send from a down station is
// suppressed (nothing reaches the wire) and counted in TxSuppressed.
func (n *NIC) Send(dst int, payload []byte) {
	if n.Suppress() {
		return
	}
	b := n.bus
	fb := b.pool.Acquire(len(payload))
	copy(fb.Data, payload)
	// The in-flight transmission itself holds one reference until the
	// delivery fan-out completes, so an interrupt-context receiver that
	// drains and releases mid-fan-out cannot recycle the buffer under
	// the remaining receivers.
	fb.Refs = 1
	f := medium.Frame{Src: n.ID(), Dst: dst, Payload: fb.Data, Buf: fb}

	wire := medium.WireBytes(len(payload), b.p.FrameOverhead, b.p.MinFrameBytes)
	start := b.k.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	dur := medium.TxTime(wire, b.p.BandwidthBps)
	b.busyUntil = start + dur + b.p.InterFrameGap

	b.stats.Frames++
	b.stats.WireBytes += uint64(wire)
	b.stats.PayloadBytes += uint64(len(payload))
	b.stats.BusyTime += dur

	d := b.acquireDeliv()
	d.f = f
	d.lost = b.p.LossRate > 0 && b.k.Rand().Float64() < b.p.LossRate
	fn := d.fnU
	if dst == medium.Broadcast {
		fn = d.fnB
	}
	b.k.AfterCoalesced(start+dur+b.p.PropDelay-b.k.Now(), "eth deliver", fn)
}

// acquireDeliv takes a delivery record (with its prebuilt closures) from
// the pool.
func (b *Bus) acquireDeliv() *delivery {
	if d := b.freeDeliv.Get(); d != nil {
		return d
	}
	d := &delivery{b: b}
	d.fnU = func() { d.runUnicast() }
	d.fnB = func() { d.runBroadcast() }
	return d
}

// runUnicast completes a unicast transmission: one indexed receiver
// lookup, independent of how many stations share the segment. A frame
// addressed to an unattached id or to the sender itself reaches no one,
// exactly as the former all-stations scan decided.
func (d *delivery) runUnicast() {
	b := d.b
	if d.lost {
		b.stats.WireLost++
	} else if dst := d.f.Dst; dst >= 0 && dst < len(b.nics) && dst != d.f.Src {
		b.nics[dst].Deliver(d.f)
	}
	d.finish()
}

// runBroadcast completes a broadcast transmission: fan the frame out to
// every attached station except the sender, in attach order.
func (d *delivery) runBroadcast() {
	b := d.b
	if d.lost {
		b.stats.WireLost++
	} else {
		for _, rx := range b.nics {
			if rx.ID() != d.f.Src {
				rx.Deliver(d.f)
			}
		}
	}
	d.finish()
}

// finish recycles the buffer if nobody kept it and the delivery record
// itself.
func (d *delivery) finish() {
	b := d.b
	b.pool.Release(d.f.Buf) // drop the in-flight reference
	d.f = medium.Frame{}
	d.lost = false
	b.freeDeliv.Put(d)
}

func (n *NIC) String() string {
	return fmt.Sprintf("nic %d (%s)", n.ID(), n.Name())
}
