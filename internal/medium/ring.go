package medium

import "unsafe"

// Ring is a receive ring: a circular buffer bounded by a logical slot
// count. Arrivals beyond the bound are refused exactly as a fixed ring
// of that size would refuse them, but the backing array starts empty
// and doubles with actual occupancy, so an idle or lightly-loaded
// station never pays for its worst case. Both media use it by value, so
// the drop/growth/high-water behaviour is shared rather than duplicated,
// and TestMediumMatchesSpec holds both to one reference ring.
//
// A slot keeps only what a frame cannot be rebuilt without: its buffer
// reference and its two addresses, 16 bytes. A frame's bytes are its
// buffer's (every medium builds Payload == Buf.Data), so Pop rebuilds
// the Payload from the buffer rather than storing the slice header once
// per receiver of a broadcast.
type Ring struct {
	slots []slot // circular physical storage; grows up to bound
	bound int    // logical capacity: the drop threshold
	head  int
	count int
	// highWater is the peak occupancy ever reached — the measured
	// fan-in that proves (or disproves) the configured bound was needed.
	highWater int
}

// slot is one queued frame: the shared buffer and the addresses.
type slot struct {
	buf      *Buf
	src, dst int32
}

// NewRing returns a ring with the given logical bound (negative bounds
// clamp to zero: a ring that refuses everything).
func NewRing(bound int) Ring {
	if bound < 0 {
		bound = 0
	}
	return Ring{bound: bound}
}

// Push queues a frame, reporting false — without queuing — when the
// ring is at its logical bound. The decision is made against the bound,
// not the physical array, so lazy growth is invisible to the protocol:
// the same frames are refused as with an eagerly allocated ring. Only
// the frame's buffer and addresses are kept; a frame without a buffer
// comes back from Pop with a nil Payload.
func (r *Ring) Push(f Frame) bool {
	if r.count >= r.bound {
		return false
	}
	if r.count == len(r.slots) {
		r.grow()
	}
	r.slots[(r.head+r.count)%len(r.slots)] = slot{buf: f.Buf, src: int32(f.Src), dst: int32(f.Dst)}
	r.count++
	if r.count > r.highWater {
		r.highWater = r.count
	}
	return true
}

// Pop dequeues the oldest frame, reporting false if the ring is empty.
// The frame's Payload is its buffer's Data.
func (r *Ring) Pop() (Frame, bool) {
	if r.count == 0 {
		return Frame{}, false
	}
	s := r.slots[r.head]
	r.slots[r.head] = slot{}
	r.head = (r.head + 1) % len(r.slots)
	r.count--
	f := Frame{Src: int(s.src), Dst: int(s.dst), Buf: s.buf}
	if s.buf != nil {
		f.Payload = s.buf.Data
	}
	return f, true
}

// grow doubles the ring's physical storage (bounded by the logical
// bound), unwrapping the circular contents into FIFO order at the front
// of the new array.
func (r *Ring) grow() {
	size := 2 * len(r.slots)
	if size < 8 {
		size = 8
	}
	if size > r.bound {
		size = r.bound
	}
	grown := make([]slot, size)
	for i := 0; i < r.count; i++ {
		grown[i] = r.slots[(r.head+i)%len(r.slots)]
	}
	r.slots = grown
	r.head = 0
}

// Pending returns the number of queued frames.
func (r *Ring) Pending() int { return r.count }

// HighWater returns the peak occupancy ever reached.
func (r *Ring) HighWater() int { return r.highWater }

// Bound returns the logical capacity (the drop threshold).
func (r *Ring) Bound() int { return r.bound }

// MemFootprint returns the physically allocated slot bytes — the lazily
// grown array of 16-byte slots, not the logical bound. The Ring header
// itself is counted by the embedding port's sizeof walk.
func (r *Ring) MemFootprint() uint64 {
	return uint64(cap(r.slots)) * uint64(unsafe.Sizeof(slot{}))
}
