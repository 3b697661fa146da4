// Package fabric simulates an RDMA-like point-to-point interconnect: the
// second implementation of the medium contract (internal/medium), next
// to the paper's shared broadcast Ethernet. Every port has its own
// transmitter with its own bandwidth and a fixed link latency: a port's
// sends serialize FIFO behind each other, but never contend with other
// ports' traffic. There is no broadcast domain at all: a Send to
// medium.Broadcast leaves the transmitter as one unicast copy per
// attached destination, each billed full wire cost — the cost inversion
// modern interconnects impose on Mether's broadcast-everything protocol.
// On the shared bus a broadcast costs one transmission no matter how
// many stations listen; here it costs N-1, paid by the sender, while
// senders stop interfering with each other. Which of the paper's
// conclusions survive that inversion is exactly what the
// ethernet-vs-fabric sweep axis measures.
//
// The copies of one broadcast leave the transmitter together, one
// serialization time after the send starts, as if on N-1 parallel links
// fed from one queue: the counters bill N-1 frames and N-1 serialization
// times, while the port's horizon advances by one. Each transmitter
// also has a bounded queue: at most Params.TxQueue sends may be in
// flight (queued or serializing) per port, and a send beyond the bound
// is dropped whole, every copy counted (Stats.LinkOverflows) — the
// fabric's analogue of receive-ring overrun, surfaced separately so a
// sweep can tell sender-side from receiver-side loss. Peak per-port
// occupancy is reported as Stats.LinkMaxQueued.
//
// This package owns only the transmit model — the per-port
// serialization horizon and queue bound, the fan-out. The receive side
// (ring, drop and suppression counters, down flag, interrupt) is
// medium.Station, embedded by Port and shared with the Ethernet NIC.
//
// The data path reuses the shared pooled machinery: refcounted payload
// buffers, each with its decode-once view (a fan-out's copies share one
// buffer and one decoded view), pooled delivery records with prebuilt
// closures, and lazily grown bounded receive rings. Steady-state traffic
// does not allocate, on either medium. All copies of one send land at
// one instant, so they ride one delivery record, filed once with
// sim.Kernel.AfterCoalesced: one callback lands them in destination
// order and counts them as the events they would have been
// (Kernel.Ran). One event per copy would have run them adjacent in
// (time, seq) anyway, and landing a copy can neither stop the kernel nor
// hand it to a process, so the simulator pays one callback for them
// where the modelled sender still pays N-1 transmissions.
package fabric

import (
	"fmt"
	"time"
	"unsafe"

	"mether/internal/medium"
	"mether/internal/sim"
)

// Params configures the fabric. The zero value is not useful; start from
// DefaultParams.
type Params struct {
	// BandwidthBps is each port's independent signalling rate in bits
	// per second. Ports do not share it: ten busy ports move ten times
	// the bytes of one.
	BandwidthBps int64
	// LinkLatency is the fixed propagation delay of every link, applied
	// after serialization.
	LinkLatency time.Duration
	// FrameOverhead is the per-frame byte overhead added to the payload
	// on the wire (a lean RDMA-style transport header, not the shared
	// bus's Ethernet+IP+UDP stack).
	FrameOverhead int
	// MinFrameBytes is the minimum wire size of a frame; shorter frames
	// are padded.
	MinFrameBytes int
	// LossRate is the probability that a transmitted frame is corrupted
	// and delivered to no one. Rolled per fan-out copy, in ascending
	// destination order: on a point-to-point medium each copy is its own
	// transmission.
	LossRate float64
	// RxRing is the per-port receive ring capacity; arrivals beyond it
	// are dropped.
	RxRing int
	// TxQueue bounds the sends in flight (queued or serializing) on one
	// port's transmitter; a send beyond it is dropped, each of its copies
	// counted as a link overflow.
	TxQueue int
}

// DefaultParams returns a modest RDMA-like fabric: 1 Gb/s per port, 2µs
// link latency, 26 bytes of transport-header overhead, 64-byte minimum
// frames, 32-frame receive rings and 64-send transmit queues. The
// receive-ring default matches the Ethernet model so medium comparisons
// vary the wire, not the host's buffering.
func DefaultParams() Params {
	return Params{
		BandwidthBps:  1_000_000_000,
		LinkLatency:   2 * time.Microsecond,
		FrameOverhead: 26,
		MinFrameBytes: 64,
		LossRate:      0,
		RxRing:        32,
		TxQueue:       64,
	}
}

// Fabric is one point-to-point interconnect instance implementing
// medium.Medium. Port ids are dense attach-order indexes.
type Fabric struct {
	k     *sim.Kernel
	p     Params
	ports []*Port

	frames        uint64
	wireBytes     uint64
	payloadBytes  uint64
	wireLost      uint64
	busyTime      time.Duration
	fanoutFrames  uint64
	linkOverflows uint64
	linkMaxQueued int

	pool      medium.Pool               // shared payload buffers (refcounted, recycled)
	freeDeliv medium.Freelist[delivery] // delivery-record pool
}

var (
	_ medium.Medium = (*Fabric)(nil)
	_ medium.Port   = (*Port)(nil)
)

// delivery is a pooled in-flight send: its payload buffer, its source,
// its destination (a port id, or medium.Broadcast for every port below
// n but the source), the loss fates of its copies and a prebuilt
// completion closure, so Send schedules without allocating. It holds
// the send's one buffer reference, dropped once every copy has landed.
type delivery struct {
	fb          *Fabric
	buf         *medium.Buf
	src, dst, n int
	lost        []bool // by destination id, rolled at send; empty on a lossless fabric
	fn          func()
}

// New creates a fabric driven by kernel k.
func New(k *sim.Kernel, p Params) *Fabric {
	// Invariant: a transmitter serializes in finite time and holds at
	// least one send. Config.Validate refuses both values before a world
	// builds a fabric, so only a direct caller can reach these.
	if p.BandwidthBps <= 0 {
		panic("fabric: BandwidthBps must be positive")
	}
	if p.TxQueue <= 0 {
		panic("fabric: TxQueue must be positive")
	}
	return &Fabric{k: k, p: p}
}

// Params returns the fabric's configuration.
func (fb *Fabric) Params() Params { return fb.p }

// AttachPort adds a port with the fabric-default receive-ring capacity.
func (fb *Fabric) AttachPort(name string, intr func()) medium.Port {
	return fb.AttachPortWithRing(name, intr, fb.p.RxRing)
}

// AttachPortWithRing adds a port with an explicit receive-ring bound.
func (fb *Fabric) AttachPortWithRing(name string, intr func(), ringCap int) medium.Port {
	p := new(Port)
	fb.Join(p, name, intr, ringCap)
	return p
}

// Join is AttachPortWithRing in place: it makes p, which must be the
// zero Port, the fabric's next port. A world keeps its hosts' ports in
// one slice, in host order, and joins each where it lies.
func (fb *Fabric) Join(p *Port, name string, intr func(), ringCap int) {
	p.fab, p.Station = fb, medium.NewStation(len(fb.ports), name, intr, ringCap)
	fb.ports = append(fb.ports, p)
}

// Stats snapshots the fabric-wide counters. Ring drops and suppressed
// transmissions are summed over ports, ring high water by max. BusyTime
// sums serialization over all copies, so on a busy fabric it exceeds
// wall time — that surplus is the parallelism a shared bus doesn't have.
func (fb *Fabric) Stats() medium.Stats {
	s := medium.Stats{
		Frames:        fb.frames,
		WireBytes:     fb.wireBytes,
		PayloadBytes:  fb.payloadBytes,
		WireLost:      fb.wireLost,
		BusyTime:      fb.busyTime,
		FanoutFrames:  fb.fanoutFrames,
		LinkOverflows: fb.linkOverflows,
		LinkMaxQueued: fb.linkMaxQueued,
	}
	for _, p := range fb.ports {
		s.AddStation(&p.Station)
	}
	return s
}

// MemFootprint returns the fabric's structural memory footprint in
// bytes: ports (with their transmitters) and their rings, and the
// pooled buffers and delivery records (with their loss fates) on the
// freelists. Deterministic by construction, like every footprint in the
// tree.
func (fb *Fabric) MemFootprint() uint64 {
	m := uint64(unsafe.Sizeof(*fb))
	for _, p := range fb.ports {
		m += uint64(unsafe.Sizeof(p)) + p.MemFootprint()
	}
	m += fb.pool.MemFootprint()
	m += fb.freeDeliv.MemFootprint()
	fb.freeDeliv.Each(func(d *delivery) { m += uint64(cap(d.lost)) })
	return m
}

// PoolStats reports payload buffers ever allocated and currently free.
func (fb *Fabric) PoolStats() (allocated, free int) { return fb.pool.Stats() }

// Port is one station on the fabric; it implements medium.Port. The
// receive side is the embedded medium.Station; the port adds its
// transmitter: the fabric it sends on, its serialization horizon and
// its sends in flight.
type Port struct {
	fab       *Fabric
	busyUntil time.Duration
	pending   int // sends queued or serializing, bounded by TxQueue
	medium.Station
}

// MemFootprint returns the port's structural footprint in bytes.
func (p *Port) MemFootprint() uint64 {
	return uint64(unsafe.Sizeof(*p)) + p.RingFootprint()
}

// Release returns a received frame's payload buffer to the fabric's pool.
func (p *Port) Release(f medium.Frame) { p.fab.pool.Release(f.Buf) }

// Send transmits payload to dst (a port id or medium.Broadcast). A
// unicast is one copy; a Broadcast has no shared wire to ride, so it is
// one copy per port attached now (ascending id, sender excluded), each
// charged full wire cost and additionally counted in
// Stats.FanoutFrames. Either way the send takes one place in the port's
// transmit queue, waits behind the port's earlier sends and holds the
// transmitter for one serialization time; its copies land together the
// link latency after. All copies share one pooled payload buffer and
// therefore one decode-once view. A send from a down port is suppressed
// and counted; a unicast to an unattached id or to the sender itself
// reaches no one and costs nothing, exactly as on the shared bus.
func (p *Port) Send(dst int, payload []byte) {
	if p.Suppress() {
		return
	}
	fb, src, n := p.fab, p.ID(), len(p.fab.ports)
	copies := 1
	if dst == medium.Broadcast {
		copies = n - 1
	} else if dst < 0 || dst >= n || dst == src {
		return
	}
	if copies == 0 {
		return
	}
	// A send past the bound is dropped on the spot: no wire cost, one
	// overflow per copy.
	if p.pending >= fb.p.TxQueue {
		fb.linkOverflows += uint64(copies)
		return
	}
	p.pending++
	fb.linkMaxQueued = max(fb.linkMaxQueued, p.pending)
	wire := medium.WireBytes(len(payload), fb.p.FrameOverhead, fb.p.MinFrameBytes)
	dur := medium.TxTime(wire, fb.p.BandwidthBps)
	now := fb.k.Now()
	start := max(now, p.busyUntil)
	p.busyUntil = start + dur
	c := uint64(copies)
	fb.frames += c
	fb.wireBytes += c * uint64(wire)
	fb.payloadBytes += c * uint64(len(payload))
	fb.busyTime += time.Duration(copies) * dur
	if dst == medium.Broadcast {
		fb.fanoutFrames += c
	}

	r := fb.freeDeliv.Get()
	if r == nil {
		r = &delivery{fb: fb}
		r.fn = func() { r.run() }
	}
	r.buf = fb.pool.Acquire(len(payload))
	copy(r.buf.Data, payload)
	r.buf.Refs = 1
	r.src, r.dst, r.n = src, dst, n
	if fb.p.LossRate > 0 {
		for to := 0; to < n; to++ {
			r.lost = append(r.lost, r.lands(to) && fb.k.Rand().Float64() < fb.p.LossRate)
		}
	}
	fb.k.AfterCoalesced(start+dur+fb.p.LinkLatency-now, "fabric deliver", r.fn)
}

// lands reports whether the send lands a copy at port to.
func (r *delivery) lands(to int) bool {
	return to != r.src && (r.dst == medium.Broadcast || to == r.dst)
}

// run lands the send's copies in destination order once it has left the
// transmit queue: each is lost, or lands in its destination's ring (or
// is dropped there). Unlike the broadcast bus, a copy arrives stamped
// with its actual destination id, not medium.Broadcast — on a fabric
// every frame is somebody's unicast. The copies after the first count
// as events of their own, as the callbacks of a coalesced batch do.
func (r *delivery) run() {
	fb := r.fb
	fb.ports[r.src].pending--
	lo, hi := r.dst, r.dst+1
	if r.dst == medium.Broadcast {
		lo, hi = 0, r.n
		fb.k.Ran(r.n - 2)
	}
	for to := lo; to < hi; to++ {
		switch {
		case !r.lands(to):
		case len(r.lost) > 0 && r.lost[to]:
			fb.wireLost++
		default:
			fb.ports[to].Deliver(medium.Frame{Src: r.src, Dst: to, Payload: r.buf.Data, Buf: r.buf})
		}
	}
	// Drop the send's reference and recycle the record.
	fb.pool.Release(r.buf)
	r.lost, r.buf = r.lost[:0], nil
	fb.freeDeliv.Put(r)
}

func (p *Port) String() string {
	return fmt.Sprintf("port %d (%s)", p.ID(), p.Name())
}
