package medium

import (
	"fmt"
	"testing"
)

// transmit plays a backend's part around Station.Deliver: one pooled
// buffer holding one in-flight reference, offered to every receiver,
// then the in-flight reference dropped.
func transmit(p *Pool, tag byte, rx ...*Station) {
	b := p.Acquire(1)
	b.Data[0] = tag
	b.Refs = 1
	for _, s := range rx {
		s.Deliver(Frame{Payload: b.Data, Buf: b})
	}
	p.Release(b)
}

// drain empties the station, releasing every frame, and returns the
// payload tags in order.
func drain(p *Pool, s *Station) (tags []byte) {
	for f, ok := s.Recv(); ok; f, ok = s.Recv() {
		tags = append(tags, f.Payload[0])
		p.Release(f.Buf)
	}
	return tags
}

// want fails unless got prints as want and every buffer is back.
func want(t *testing.T, p *Pool, what string, got any, want string) {
	t.Helper()
	if g := fmt.Sprint(got); g != want {
		t.Errorf("%s = %s, want %s", what, g, want)
	}
	if alloc, free := p.Stats(); alloc != free {
		t.Errorf("pool: %d allocated, %d free — a reference leaked", alloc, free)
	}
}

// A ring of capacity C accepts exactly C frames; every frame past it is
// one counted drop that leaves no trace in the ring, takes no buffer
// reference and raises no interrupt.
func TestStationDropsAtExactCapacity(t *testing.T) {
	var p Pool
	intrs := 0
	s := NewStation(3, "rx", func() { intrs++ }, 4)
	for i := byte(0); i < 15; i++ {
		transmit(&p, i, &s)
	}
	want(t, &p, "id, name, cap, pending, drops, interrupts, frames",
		[]any{s.ID(), s.Name(), s.RingCap(), s.Pending(), s.Drops(), intrs, drain(&p, &s)}, "[3 rx 4 4 11 4 [0 1 2 3]]")
}

// A zero (or negative) bound is a ring that refuses everything.
func TestStationZeroCapacityRefusesEverything(t *testing.T) {
	for _, bound := range []int{0, -5} {
		var p Pool
		s := NewStation(0, "rx", nil, bound)
		for i := byte(0); i < 3; i++ {
			transmit(&p, i, &s)
		}
		want(t, &p, fmt.Sprint("bound ", bound, ": pending, drops, ring bytes"), []any{s.Pending(), s.Drops(), s.RingFootprint()}, "[0 3 0]")
	}
}

// The nastiest growth case: the ring grows while its contents wrap the
// physical array, so the copy must unwrap head..tail in order. An idle
// deep ring costs nothing until frames queue.
func TestStationFIFOAcrossWrappedGrow(t *testing.T) {
	var p Pool
	s := NewStation(0, "rx", nil, 64)
	idle := s.RingFootprint()
	// Fill the first physical array (8), take five so head > 0, then
	// queue twenty: they wrap within 8 slots and force growth mid-wrap.
	for i := byte(0); i < 8; i++ {
		transmit(&p, i, &s)
	}
	for i := 0; i < 5; i++ {
		f, _ := s.Recv()
		p.Release(f.Buf)
	}
	for i := byte(100); i < 120; i++ {
		transmit(&p, i, &s)
	}
	want(t, &p, "idle bytes, drops, frames", []any{idle, s.Drops(), drain(&p, &s)},
		"[0 0 [5 6 7 100 101 102 103 104 105 106 107 108 109 110 111 112 113 114 115 116 117 118 119]]")
}

// High water is the peak pending count: monotone across drains, capped
// by the logical bound, and folded into medium-wide Stats by max, never
// summed.
func TestStationHighWater(t *testing.T) {
	var p Pool
	s, quiet := NewStation(0, "rx", nil, 16), NewStation(1, "quiet", nil, 16)
	for i := byte(0); i < 10; i++ {
		transmit(&p, i, &s)
	}
	transmit(&p, 0, &quiet)
	drain(&p, &s)
	for i := byte(0); i < 3; i++ {
		transmit(&p, i, &s)
	}
	after := s.RingHighWater()
	for i := byte(0); i < 40; i++ {
		transmit(&p, i, &s)
	}
	var st Stats
	st.AddStation(&s)
	st.AddStation(&quiet)
	drain(&p, &s)
	drain(&p, &quiet)
	want(t, &p, "high water after a drain, after overflow; folded high water, drops",
		[]any{after, s.RingHighWater(), st.RingHighWater, st.RingDrops}, "[10 16 16 27]")
}

// A down station neither receives nor is charged a drop — even with a
// full ring — and takes no reference on the buffer it ignored; its own
// sends are suppressed and counted until it comes back.
func TestStationDown(t *testing.T) {
	var p Pool
	intrs := 0
	s, live := NewStation(0, "rx", func() { intrs++ }, 1), NewStation(1, "live", nil, 1)
	transmit(&p, 1, &s, &live) // fills both rings
	s.SetDown(true)
	transmit(&p, 2, &s, &live)
	suppress := fmt.Sprint(s.Down(), s.Suppress(), s.Suppress(), live.Suppress())
	s.SetDown(false)
	var st Stats
	st.AddStation(&s)
	st.AddStation(&live)
	want(t, &p, "down, suppress ×3; pending, drops, interrupts; after recovery; folded suppressed, drops; frames",
		[]any{suppress, s.Pending(), s.Drops(), intrs, live.Drops(), s.Suppress(), s.TxSuppressed(), live.TxSuppressed(),
			st.TxSuppressed, st.RingDrops, drain(&p, &s), drain(&p, &live)},
		"[true true true false 1 0 1 1 false 2 0 2 1 [1] [1]]")
}

// Stats.Add is the multi-trunk fold: counters and busy time summed, the
// two occupancy peaks by max.
func TestStatsAddSumsCountersAndMaxesPeaks(t *testing.T) {
	a := Stats{Frames: 1, WireBytes: 64, PayloadBytes: 10, WireLost: 1, RingDrops: 2, TxSuppressed: 3,
		RingHighWater: 7, BusyTime: 5, FanoutFrames: 1, LinkOverflows: 1, LinkMaxQueued: 2}
	b := Stats{Frames: 2, WireBytes: 128, PayloadBytes: 20, WireLost: 2, RingDrops: 4, TxSuppressed: 6,
		RingHighWater: 4, BusyTime: 10, FanoutFrames: 2, LinkOverflows: 2, LinkMaxQueued: 9}
	a.Add(b)
	want := Stats{Frames: 3, WireBytes: 192, PayloadBytes: 30, WireLost: 3, RingDrops: 6, TxSuppressed: 9,
		RingHighWater: 7, BusyTime: 15, FanoutFrames: 3, LinkOverflows: 3, LinkMaxQueued: 9}
	if a != want {
		t.Errorf("Add gave %+v, want %+v", a, want)
	}
}

// The freelist hands records back most-recent-first, reports empty as
// nil, and its footprint counts the backing array plus pooled records.
func TestFreelistLIFO(t *testing.T) {
	type rec struct{ a, b uint64 }
	var l Freelist[rec]
	if l.Get() != nil || l.MemFootprint() != 0 {
		t.Fatal("empty list must yield nil and cost nothing")
	}
	x, y := &rec{a: 1}, &rec{a: 2}
	l.Put(x)
	l.Put(y)
	if got := l.MemFootprint(); got != uint64(cap(l.free))*8+2*16 {
		t.Errorf("footprint %d with two 16-byte records on a %d-slot array", got, cap(l.free))
	}
	if l.Get() != y || l.Get() != x || l.Get() != nil {
		t.Error("records must come back last-in first-out, then nil")
	}
}
