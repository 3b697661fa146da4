package sim

import (
	"math/bits"
	"time"
)

// The hierarchical timing wheel replacing the former container/heap
// event queue. Virtual timestamps are int64 nanoseconds; the wheel has
// eight levels of 256 power-of-two buckets, level L bucket spanning
// 2^(8L) ns, so together the levels cover the full non-negative int64
// range with no overflow list.
//
// Placement rule: an event lands at the level of the highest-order byte
// in which its timestamp differs from the wheel cursor, in the bucket
// indexed by that byte of the timestamp. Because the event shares every
// byte above that level with the cursor, its bucket lies within the
// level's current window and bucket positions never wrap.
//
// Cursor jump: an event at level L shares the cursor's bytes above L and
// exceeds it in byte L, so the first occupied bucket of the lowest
// occupied level holds the earliest pending event. advance finds that
// bucket in two bit scans, walks its list once for the minimum
// timestamp m, moves the cursor straight to m (not to the bucket's
// start), stages the events of instant m and files the rest of the
// bucket again, relative to m. A bucket of one event, or of many events
// of one instant — every level-0 bucket, which spans one nanosecond —
// is emptied without a single refile.
//
// Invariant: no occupied bucket lies behind the cursor, and the cursor
// lies inside no occupied bucket's span; so every resident event sits
// where the placement rule would put it now, and find-first reads the
// bitmaps from bit zero without consulting the cursor. The cursor moves
// only forward and never past a pending timestamp: it either stops
// short of the first bucket's start, where every placement stands, or
// enters that bucket's span and empties the bucket in the same step.
//
// Determinism argument (why the wheel dispatches in exact (time, seq)
// order, as a priority queue would):
//
//  1. The events staged in one step carry one timestamp; draining them
//     in list order is (time, seq) order provided the list is
//     seq-sorted.
//  2. Every bucket list is seq-sorted at all times: direct schedules
//     append events with strictly increasing seq, and a refile happens
//     only when every lower level is empty, so the refiled events land
//     in empty buckets, in traversal (= seq) order, and every later
//     direct insert into those buckets follows them with a higher seq.
//  3. The cursor stops only at the exact time of the earliest pending
//     event or, at a deadline before it, at the deadline.
//
// Scheduling and cancellation are O(1) (bucket append / doubly-linked
// unlink); an event is touched again only when its bucket is refiled —
// strictly downward, so at most once per level, and far less for the
// sparse and the lock-step populations the models produce
// (Counters.Refiles counts them) — so dispatch cost is bounded by a
// constant regardless of how many events are pending. spec_test.go
// holds the kernel to a reference kernel that scans a slice for the
// minimum (time, seq), under adversarial schedule/cancel/RunUntil
// interleavings, checking the invariant after every operation.

const (
	wheelLevels = 8
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
)

// posNone marks an event that is not linked into a wheel bucket (it is
// running, in runq, free, or cancelled).
const posNone = -1

// wbucket is one doubly-linked, seq-sorted event list.
type wbucket struct {
	head, tail *Event
}

// wheelLevel is one resolution tier: 256 buckets plus an occupancy
// bitmap of four words.
type wheelLevel struct {
	occ  [wheelSlots / 64]uint64
	slot [wheelSlots]wbucket
}

// wheel is the pending-event store. cur is the cursor: a virtual time
// <= the kernel clock and < every resident event's timestamp, used as
// the reference point for placement. cnt counts resident events. words
// summarises the occupancy bitmaps: bit 4L+i is set iff word i of level
// L's bitmap is non-zero, so the first occupied bucket of the lowest
// occupied level is two bit scans away.
type wheel struct {
	cur   int64
	cnt   int
	words uint32
	lvl   [wheelLevels]wheelLevel
}

func (w *wheel) setOcc(level, idx int) {
	w.lvl[level].occ[idx>>6] |= 1 << (idx & 63)
	w.words |= 1 << (level<<2 | idx>>6)
}

func (w *wheel) clearOcc(level, idx int) {
	occ := &w.lvl[level].occ[idx>>6]
	*occ &^= 1 << (idx & 63)
	if *occ == 0 {
		w.words &^= 1 << (level<<2 | idx>>6)
	}
}

// schedule links ev into the bucket given by the placement rule.
// The caller guarantees ev.at > w.cur (same-instant events go to the
// kernel's runq, never the wheel).
func (w *wheel) schedule(ev *Event) {
	d := uint64(ev.at) ^ uint64(w.cur)
	level := (bits.Len64(d) - 1) >> 3
	idx := int(uint64(ev.at)>>(level*wheelBits)) & (wheelSlots - 1)
	b := &w.lvl[level].slot[idx]
	ev.next = nil
	ev.prev = b.tail
	if b.tail == nil {
		b.head = ev
		w.setOcc(level, idx)
	} else {
		b.tail.next = ev
	}
	b.tail = ev
	ev.pos = int32(level<<wheelBits | idx)
	w.cnt++
}

// unlink removes ev from its bucket in O(1). Relative order of the
// remaining events is untouched, so the seq-sorted invariant holds.
func (w *wheel) unlink(ev *Event) {
	level := int(ev.pos) >> wheelBits
	idx := int(ev.pos) & (wheelSlots - 1)
	b := &w.lvl[level].slot[idx]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	if b.head == nil {
		w.clearOcc(level, idx)
	}
	ev.next, ev.prev = nil, nil
	ev.pos = posNone
	w.cnt--
}

// first returns the first occupied bucket of the lowest occupied level,
// which holds the earliest pending event. The wheel must not be empty.
func (w *wheel) first() (level, idx int) {
	word := bits.TrailingZeros32(w.words)
	level = word >> 2
	return level, word&3<<6 | bits.TrailingZeros64(w.lvl[level].occ[word&3])
}

// peek returns the earliest resident event's time and the least seq at
// that time, without moving anything; the wheel must not be empty. The
// first bucket's list is seq-sorted, so its first event at the minimum
// has the least seq there.
func (w *wheel) peek() (at time.Duration, seq uint64) {
	level, idx := w.first()
	at = never
	for ev := w.lvl[level].slot[idx].head; ev != nil; ev = ev.next {
		if ev.at < at {
			at, seq = ev.at, ev.seq
		}
	}
	return at, seq
}

// advance moves the cursor to the earliest pending event time m, if no
// later than deadline, and appends that instant's events to k.runq in
// (time, seq) order; the rest of their bucket is filed again relative
// to m. Beyond the deadline the cursor moves up to the deadline instead
// (never backward): a deadline before the first bucket's start moves
// nothing else, one inside its span refiles the bucket relative to the
// deadline, because a cursor left inside an occupied bucket's span
// would place later inserts below the bucket and let them overtake it.
// The caller calls it with runq empty and reads the outcome from runq
// and the wheel. advance assigns no seq and counts no dispatch; the
// clock itself is the caller's to set.
func (k *Kernel) advance(deadline int64) {
	w := &k.wheel
	if w.words == 0 {
		return
	}
	level, idx := w.first()
	b := &w.lvl[level].slot[idx]
	head := b.head
	// The head is the lowest seq, not the earliest time. A level-0 bucket
	// is one instant.
	m := int64(head.at)
	if level > 0 {
		for ev := head.next; ev != nil; ev = ev.next {
			m = min(m, int64(ev.at))
		}
	}
	c := m
	if m > deadline {
		if deadline <= w.cur {
			return
		}
		if start := m &^ (1<<(level*wheelBits) - 1); deadline < start {
			w.cur = deadline
			return
		}
		c = deadline
	}
	w.cur = c
	b.head, b.tail = nil, nil
	w.clearOcc(level, idx)
	for ev := head; ev != nil; {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.cnt--
		if int64(ev.at) == c {
			ev.pos = posNone
			k.runq = append(k.runq, ev)
		} else {
			w.schedule(ev)
			k.ctr.Refiles++
		}
		ev = next
	}
}
