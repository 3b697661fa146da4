// Package fabric simulates an RDMA-like point-to-point interconnect: the
// second implementation of the medium contract (internal/medium), next
// to the paper's shared broadcast Ethernet. Every ordered pair of ports
// is its own link with independent bandwidth and a fixed link latency;
// frames on one link serialize FIFO behind each other but never contend
// with traffic between other ports. There is no broadcast domain at all:
// a Send to medium.Broadcast is expanded by the fabric into one unicast
// copy per attached destination, each charged full wire cost on its own
// link — the cost inversion modern interconnects impose on Mether's
// broadcast-everything protocol. On the shared bus a broadcast costs one
// transmission no matter how many stations listen; here it costs N-1,
// paid by the sender, while unicasts stop interfering with each other.
// Which of the paper's conclusions survive that inversion is exactly
// what the ethernet-vs-fabric sweep axis measures.
//
// Each link also has a bounded transmit queue: at most Params.TxQueue
// frames may be in flight (queued or serializing) per link, and sends
// beyond the bound are dropped and counted (Stats.LinkOverflows) — the
// fabric's analogue of receive-ring overrun, surfaced separately so a
// sweep can tell sender-side from receiver-side loss. Peak per-link
// occupancy is reported as Stats.LinkMaxQueued.
//
// This package owns only the transmit model — the link table, the
// per-link serialization horizon and queue bound, the fan-out loop. The
// receive side (ring, drop and suppression counters, down flag,
// interrupt) is medium.Station, embedded by Port and shared with the
// Ethernet NIC.
//
// The data path reuses the shared pooled machinery: refcounted payload
// buffers, each with its decode-once view (a fan-out's copies share one
// buffer and one decoded view), pooled delivery records with prebuilt
// closures, and lazily grown bounded receive rings. Steady-state traffic
// does not allocate, on either medium. The copies of one send that land
// at one instant — every copy on an idle link, N-1 of them for a
// broadcast over idle links — ride one delivery record, filed once with
// sim.Kernel.AfterCoalesced as the first of them is sent: one callback
// lands them in dst order, each with its own link, loss and stats work,
// and counts them as the events they would have been (Kernel.Ran). One
// event per copy would have run them adjacent in (time, seq) anyway, and
// landing a copy can neither stop the kernel nor hand it to a process,
// so the simulator pays one callback for them where the modelled sender
// still pays N-1 transmissions. A copy behind a busy link lands later,
// in a record of its own.
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
	// BandwidthBps is each link's independent signalling rate in bits
	// per second. Links do not share it: ten busy links move ten times
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
	// and delivered to no one. Rolled per fan-out copy: on a
	// point-to-point medium each copy is its own transmission.
	LossRate float64
	// RxRing is the per-port receive ring capacity; arrivals beyond it
	// are dropped.
	RxRing int
	// TxQueue bounds the frames in flight (queued or serializing) on one
	// link; sends beyond it are dropped and counted as link overflows.
	TxQueue int
}

// DefaultParams returns a modest RDMA-like fabric: 1 Gb/s per link, 2µs
// link latency, 26 bytes of transport-header overhead, 64-byte minimum
// frames, 32-frame receive rings and 64-frame link transmit queues. The
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

// link is the transmit side of one ordered (src,dst) pair: its own FIFO
// serialization horizon and in-flight bound. Links materialize on first
// use, so an N-port fabric allocates state proportional to the pairs
// that actually talk, not N².
type link struct {
	busyUntil time.Duration
	pending   int // frames queued or serializing, bounded by TxQueue
}

// Fabric is one point-to-point interconnect instance implementing
// medium.Medium. Port ids are dense attach-order indexes, shared with
// the link table.
type Fabric struct {
	k     *sim.Kernel
	p     Params
	ports []*Port
	// links[src][dst] is the (src,dst) transmit link, nil until first
	// used. The per-src rows are also lazy: a port that never sends
	// costs one nil slice.
	links [][]*link

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

// delivery is a pooled in-flight record: one payload buffer, its source,
// the copies that land together, and a prebuilt completion closure, so
// Send schedules without allocating. It holds one buffer reference,
// dropped once its last copy has landed.
type delivery struct {
	fb   *Fabric
	buf  *medium.Buf
	src  int
	legs []leg
	fn   func()
}

// leg is one copy in a delivery: its destination, the link whose queue it
// leaves on landing, and its loss fate, rolled at send.
type leg struct {
	dst  int
	l    *link
	lost bool
}

// New creates a fabric driven by kernel k.
func New(k *sim.Kernel, p Params) *Fabric {
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
	fb.links = append(fb.links, nil)
}

// linkTo returns (materializing if needed) the src→dst link.
func (fb *Fabric) linkTo(src, dst int) *link {
	row := fb.links[src]
	if row == nil {
		row = make([]*link, len(fb.ports))
		fb.links[src] = row
	} else if len(row) < len(fb.ports) {
		grown := make([]*link, len(fb.ports))
		copy(grown, row)
		row = grown
		fb.links[src] = row
	}
	l := row[dst]
	if l == nil {
		l = &link{}
		row[dst] = l
	}
	return l
}

// Stats snapshots the fabric-wide counters. Ring drops and suppressed
// transmissions are summed over ports, ring high water by max. BusyTime
// sums serialization over all links, so on a busy fabric it exceeds wall
// time — that surplus is the parallelism a shared bus doesn't have.
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
// bytes: ports and their rings, the materialized link table, and the
// pooled buffers and delivery records (with their leg arrays) on the
// freelists. Deterministic by construction, like every footprint in the
// tree.
func (fb *Fabric) MemFootprint() uint64 {
	m := uint64(unsafe.Sizeof(*fb))
	for _, p := range fb.ports {
		m += uint64(unsafe.Sizeof(p)) + p.MemFootprint()
	}
	m += uint64(cap(fb.links)) * uint64(unsafe.Sizeof([]*link(nil)))
	for _, row := range fb.links {
		m += uint64(cap(row)) * uint64(unsafe.Sizeof((*link)(nil)))
		for _, l := range row {
			if l != nil {
				m += uint64(unsafe.Sizeof(*l))
			}
		}
	}
	m += fb.pool.MemFootprint()
	m += fb.freeDeliv.MemFootprint()
	fb.freeDeliv.Each(func(d *delivery) { m += uint64(cap(d.legs)) * uint64(unsafe.Sizeof(leg{})) })
	return m
}

// PoolStats reports payload buffers ever allocated and currently free.
func (fb *Fabric) PoolStats() (allocated, free int) { return fb.pool.Stats() }

// Port is one station on the fabric; it implements medium.Port. The
// receive side is the embedded medium.Station; the port adds the fabric
// whose links it transmits on.
type Port struct {
	fab *Fabric
	medium.Station
}

// MemFootprint returns the port's structural footprint in bytes.
func (p *Port) MemFootprint() uint64 {
	return uint64(unsafe.Sizeof(*p)) + p.RingFootprint()
}

// Release returns a received frame's payload buffer to the fabric's pool.
func (p *Port) Release(f medium.Frame) { p.fab.pool.Release(f.Buf) }

// Send transmits payload to dst (a port id or medium.Broadcast). A
// unicast travels the single src→dst link. A Broadcast has no shared
// wire to ride: the fabric expands it into one copy per attached
// destination (ascending id, sender excluded), each serialized on its
// own link and charged full wire cost — those copies are additionally
// counted in Stats.FanoutFrames. All copies share one pooled payload
// buffer and therefore one decode-once view. A send from a down port is
// suppressed and counted; a unicast to an unattached id or to the
// sender itself reaches no one and costs nothing, exactly as on the
// shared bus.
func (p *Port) Send(dst int, payload []byte) {
	if p.Suppress() {
		return
	}
	fb, src := p.fab, p.ID()
	lo, hi := dst, dst+1
	if dst == medium.Broadcast {
		if len(fb.ports) <= 1 {
			return
		}
		lo, hi = 0, len(fb.ports)
	} else if dst < 0 || dst >= len(fb.ports) || dst == src {
		return
	}
	buf := fb.pool.Acquire(len(payload))
	copy(buf.Data, payload)
	// The sender's reference pins the buffer for the loop: without it, an
	// overflow on the first link would recycle the buffer while later
	// copies still transmit it. Each record takes one of its own.
	buf.Refs = 1
	wire := medium.WireBytes(len(payload), fb.p.FrameOverhead, fb.p.MinFrameBytes)
	dur := medium.TxTime(wire, fb.p.BandwidthBps)
	now := fb.k.Now()
	var idle *delivery // the record of the copies landing at now+dur+LinkLatency
	for to := lo; to < hi; to++ {
		if to == src {
			continue
		}
		// An overflowed copy is dropped on the spot: no wire cost, one
		// overflow count.
		l := fb.linkTo(src, to)
		if l.pending >= fb.p.TxQueue {
			fb.linkOverflows++
			continue
		}
		l.pending++
		fb.linkMaxQueued = max(fb.linkMaxQueued, l.pending)
		start := max(now, l.busyUntil)
		l.busyUntil = start + dur
		fb.frames++
		fb.wireBytes += uint64(wire)
		fb.payloadBytes += uint64(len(payload))
		fb.busyTime += dur
		if dst == medium.Broadcast {
			fb.fanoutFrames++
		}
		lost := fb.p.LossRate > 0 && fb.k.Rand().Float64() < fb.p.LossRate
		r := idle
		if r == nil || start > now {
			n := 1
			if dst == medium.Broadcast && start == now {
				n = hi - 1 // room for every copy
			}
			r = fb.record(src, buf, n)
			fb.k.AfterCoalesced(start+dur+fb.p.LinkLatency-now, "fabric deliver", r.fn)
			if start == now {
				idle = r
			}
		}
		r.legs = append(r.legs, leg{to, l, lost})
	}
	fb.pool.Release(buf)
}

// record takes a delivery record, with its prebuilt closure and room for
// n copies, from the pool, and gives it a reference on buf from src.
func (fb *Fabric) record(src int, buf *medium.Buf, n int) *delivery {
	r := fb.freeDeliv.Get()
	if r == nil {
		r = &delivery{fb: fb}
		r.fn = func() { r.run() }
	}
	if cap(r.legs) < n {
		r.legs = make([]leg, 0, n)
	}
	buf.Refs++
	r.buf, r.src = buf, src
	return r
}

// run lands the record's copies in order: each leaves its link's transmit
// queue, then lands in its destination ring (or is lost, or dropped).
// Unlike the broadcast bus, a copy arrives stamped with its actual
// destination id, not medium.Broadcast — on a fabric every frame is
// somebody's unicast. The copies after the first count as events of their
// own, as the callbacks of a coalesced batch do.
func (r *delivery) run() {
	fb := r.fb
	fb.k.Ran(len(r.legs) - 1)
	for _, c := range r.legs {
		c.l.pending--
		if c.lost {
			fb.wireLost++
		} else {
			fb.ports[c.dst].Deliver(medium.Frame{Src: r.src, Dst: c.dst, Payload: r.buf.Data, Buf: r.buf})
		}
	}
	// Drop the record's reference and recycle it.
	fb.pool.Release(r.buf)
	r.legs, r.buf = r.legs[:0], nil
	fb.freeDeliv.Put(r)
}

func (p *Port) String() string {
	return fmt.Sprintf("port %d (%s)", p.ID(), p.Name())
}
