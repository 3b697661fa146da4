package medium

import "unsafe"

// Buf is a pooled payload buffer shared by every receiver of one
// transmission. Refs counts ring slots (and in-flight deliveries) still
// holding the buffer; it returns to its Pool's freelist at zero. view
// is the decode-once cache, so a broadcast is parsed once instead of once
// per station. It stays with the buffer for good, and Pool.Acquire
// invalidates it when the buffer is handed out with new bytes.
type Buf struct {
	Data []byte // full-capacity backing array
	Refs int
	view View
}

// View is a decoded form of a buffer's bytes, attached by the layer that
// decodes them. Invalidate tells it the buffer now holds new bytes.
type View interface {
	Invalidate()
}

// Frame is one datagram on a medium. A frame's bytes are its buffer's:
// every frame a medium builds has Payload == Buf.Data, and a receive
// Ring keeps only the buffer reference and the addresses, rebuilding
// Payload from Buf on Recv. Payload is valid until the receiver calls
// Release (or indefinitely for receivers that never release); the
// medium copies the sender's bytes on Send, so one buffer is shared by
// all receivers of a broadcast. On a shared bus a broadcast frame
// carries Dst == Broadcast to every receiver; a point-to-point medium
// stamps each fan-out copy with its actual destination.
type Frame struct {
	Src     int // sending port id
	Dst     int // receiving port id or Broadcast
	Payload []byte

	Buf *Buf // pool bookkeeping; nil for zero-value Frames
}

// View returns the decode-once view attached to this frame's shared
// payload buffer, or nil when none has been attached (or the frame does
// not come from a pooled buffer). All receivers of one transmission see
// the same view, which may have been invalidated since it was decoded.
func (f Frame) View() View {
	if f.Buf == nil {
		return nil
	}
	return f.Buf.view
}

// SetView attaches a decoded view, which may alias the payload bytes, to
// the frame's shared payload buffer for its later receivers and later
// transmissions. A no-op for frames without a pooled buffer.
func (f Frame) SetView(v View) {
	if f.Buf != nil {
		f.Buf.view = v
	}
}

// Pool recycles payload buffers for one medium. Worlds are
// single-threaded simulations, so the pool needs no locking. The zero
// value is ready to use; media embed it by value.
type Pool struct {
	free []*Buf
	// allocated counts buffers ever created; with every receiver
	// releasing its frames, a quiescent medium has all of them back on
	// the freelist (see Stats).
	allocated int
}

// Acquire takes a buffer of length n from the pool, growing the backing
// array only when a pooled buffer is too small. A reused buffer's view
// is invalidated: the caller writes new bytes into it.
func (p *Pool) Acquire(n int) *Buf {
	if l := len(p.free); l > 0 {
		b := p.free[l-1]
		p.free[l-1] = nil
		p.free = p.free[:l-1]
		if cap(b.Data) < n {
			b.Data = make([]byte, n)
		}
		b.Data = b.Data[:n]
		b.Refs = 0
		if b.view != nil {
			b.view.Invalidate()
		}
		return b
	}
	p.allocated++
	return &Buf{Data: make([]byte, n)}
}

// Release drops one reference, recycling the buffer at zero. The
// buffer keeps its decode-once view; Acquire invalidates it when the
// buffer carries new bytes.
func (p *Pool) Release(b *Buf) {
	if b == nil || b.Refs <= 0 {
		return
	}
	b.Refs--
	if b.Refs == 0 {
		p.free = append(p.free, b)
	}
}

// Stats reports buffers ever allocated and buffers currently free; on
// a quiescent medium whose receivers release every frame the two are
// equal, and a gap is a leaked (never-released) buffer.
func (p *Pool) Stats() (allocated, free int) {
	return p.allocated, len(p.free)
}

// MemFootprint returns the pool's structural footprint in bytes: every
// free buffer (header plus backing capacity) and the freelist's own
// backing array. The Pool value itself is counted by the embedding
// medium's sizeof walk.
func (p *Pool) MemFootprint() uint64 {
	var m uint64
	for _, b := range p.free {
		m += uint64(unsafe.Sizeof(*b)) + uint64(cap(b.Data))
	}
	m += uint64(cap(p.free)) * uint64(unsafe.Sizeof((*Buf)(nil)))
	return m
}

// Freelist is a LIFO pool of *T records for a single-threaded world:
// in-flight delivery and forward records carry prebuilt closures, so
// recycling them keeps steady-state traffic allocation-free. Get
// returns nil when the list is empty and the caller builds a fresh
// record. (Pool keeps its own inlined pop: on this list
// medium.pool_cycle_ns measured 4.2 → 5.6 ns.)
type Freelist[T any] struct{ free []*T }

// Get pops the most recently returned record, or nil.
func (l *Freelist[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns a record to the list.
func (l *Freelist[T]) Put(x *T) { l.free = append(l.free, x) }

// Each calls fn with every pooled record, for footprints that count what
// a record holds beyond its own size.
func (l *Freelist[T]) Each(fn func(*T)) {
	for _, x := range l.free {
		fn(x)
	}
}

// MemFootprint returns the list's structural footprint in bytes: its
// backing array plus every pooled record.
func (l *Freelist[T]) MemFootprint() uint64 {
	var rec T
	return uint64(cap(l.free))*uint64(unsafe.Sizeof((*T)(nil))) + uint64(len(l.free))*uint64(unsafe.Sizeof(rec))
}
