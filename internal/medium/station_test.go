package medium

import "testing"

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

// wantFIFO drains the station, releasing every frame, and fails unless
// the payload tags are exactly want, in order.
func wantFIFO(t *testing.T, p *Pool, s *Station, want ...byte) {
	t.Helper()
	for i, w := range want {
		f, ok := s.Recv()
		if !ok {
			t.Fatalf("ring empty after %d frames, want %d", i, len(want))
		}
		if f.Payload[0] != w {
			t.Fatalf("frame %d carries %d, want %d (FIFO violated)", i, f.Payload[0], w)
		}
		p.Release(f.Buf)
	}
	if _, ok := s.Recv(); ok {
		t.Fatalf("ring holds more than the %d frames expected", len(want))
	}
}

func balanced(t *testing.T, p *Pool) {
	t.Helper()
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
	if s.ID() != 3 || s.Name() != "rx" || s.RingCap() != 4 {
		t.Fatalf("station is %d/%q cap %d, want 3/rx cap 4", s.ID(), s.Name(), s.RingCap())
	}
	for i := byte(0); i < 4; i++ {
		transmit(&p, i, &s)
	}
	if s.Pending() != 4 || s.Drops() != 0 || intrs != 4 {
		t.Fatalf("at capacity: pending %d drops %d interrupts %d, want 4, 0, 4", s.Pending(), s.Drops(), intrs)
	}
	for i := byte(4); i < 15; i++ {
		transmit(&p, i, &s)
	}
	if s.Pending() != 4 || s.Drops() != 11 || intrs != 4 {
		t.Errorf("after 11 past capacity: pending %d drops %d interrupts %d, want 4, 11, 4", s.Pending(), s.Drops(), intrs)
	}
	wantFIFO(t, &p, &s, 0, 1, 2, 3)
	balanced(t, &p) // the overflowed frames' buffers came back with no receiver holding them
}

// A zero (or negative) bound is a ring that refuses everything.
func TestStationZeroCapacityRefusesEverything(t *testing.T) {
	for _, bound := range []int{0, -5} {
		var p Pool
		s := NewStation(0, "rx", nil, bound)
		for i := byte(0); i < 3; i++ {
			transmit(&p, i, &s)
		}
		if s.Pending() != 0 || s.Drops() != 3 || s.RingFootprint() != 0 {
			t.Errorf("bound %d: pending %d drops %d ring bytes %d, want 0, 3, 0",
				bound, s.Pending(), s.Drops(), s.RingFootprint())
		}
		balanced(t, &p)
	}
}

// The nastiest growth case: the ring grows while its contents wrap the
// physical array, so the copy must unwrap head..tail in order. An idle
// deep ring costs nothing until frames queue.
func TestStationFIFOAcrossWrappedGrow(t *testing.T) {
	var p Pool
	s := NewStation(0, "rx", nil, 64)
	if s.RingFootprint() != 0 {
		t.Errorf("idle 64-slot ring holds %d bytes, want none", s.RingFootprint())
	}
	// Fill the initial physical array (8), drain five so head > 0, then
	// queue twenty: they wrap within 8 slots and force growth mid-wrap.
	for i := byte(0); i < 8; i++ {
		transmit(&p, i, &s)
	}
	for i := byte(0); i < 5; i++ {
		f, ok := s.Recv()
		if !ok || f.Payload[0] != i {
			t.Fatalf("prefill drain %d: ok=%v", i, ok)
		}
		p.Release(f.Buf)
	}
	want := []byte{5, 6, 7}
	for i := byte(100); i < 120; i++ {
		transmit(&p, i, &s)
		want = append(want, i)
	}
	if s.Drops() != 0 {
		t.Fatalf("drops = %d below the bound, want 0", s.Drops())
	}
	wantFIFO(t, &p, &s, want...)
	balanced(t, &p)
}

// High water is the peak pending count: monotone across drains, capped
// by the logical bound, and folded into medium-wide Stats by max, never
// summed.
func TestStationHighWater(t *testing.T) {
	var p Pool
	s := NewStation(0, "rx", nil, 16)
	quiet := NewStation(1, "quiet", nil, 16)
	for i := byte(0); i < 10; i++ {
		transmit(&p, i, &s)
	}
	transmit(&p, 0, &quiet)
	for s.Pending() > 0 {
		f, _ := s.Recv()
		p.Release(f.Buf)
	}
	for i := byte(0); i < 3; i++ {
		transmit(&p, i, &s)
	}
	if hw := s.RingHighWater(); hw != 10 {
		t.Errorf("high water = %d after 10, drain, 3; want 10 (monotone peak)", hw)
	}
	for i := byte(0); i < 40; i++ {
		transmit(&p, i, &s)
	}
	if hw := s.RingHighWater(); hw != 16 {
		t.Errorf("high water = %d after overflow, want the bound 16", hw)
	}
	var st Stats
	st.AddStation(&s)
	st.AddStation(&quiet)
	if st.RingHighWater != 16 || st.RingDrops != s.Drops() {
		t.Errorf("folded stats: high water %d drops %d, want max 16 and %d", st.RingHighWater, st.RingDrops, s.Drops())
	}
}

// A down station neither receives nor is charged a drop — even with a
// full ring — and takes no reference on the buffer it ignored; its own
// sends are suppressed and counted until it comes back.
func TestStationDown(t *testing.T) {
	var p Pool
	intrs := 0
	s := NewStation(0, "rx", func() { intrs++ }, 1)
	live := NewStation(1, "live", nil, 1)
	transmit(&p, 1, &s, &live) // fills both rings
	s.SetDown(true)
	transmit(&p, 2, &s, &live)
	if !s.Down() || s.Pending() != 1 || s.Drops() != 0 || intrs != 1 {
		t.Errorf("down station: pending %d drops %d interrupts %d, want 1, 0, 1", s.Pending(), s.Drops(), intrs)
	}
	if live.Drops() != 1 {
		t.Errorf("live station with the same full ring: drops %d, want 1", live.Drops())
	}
	if !s.Suppress() || !s.Suppress() || live.Suppress() {
		t.Error("Suppress must report true on the down station and false on the live one")
	}
	s.SetDown(false)
	if s.Suppress() || s.TxSuppressed() != 2 || live.TxSuppressed() != 0 {
		t.Errorf("after recovery: suppressed %d (live %d), want 2 (0) and sends flowing", s.TxSuppressed(), live.TxSuppressed())
	}
	var st Stats
	st.AddStation(&s)
	st.AddStation(&live)
	if st.TxSuppressed != 2 || st.RingDrops != 1 {
		t.Errorf("folded stats: suppressed %d drops %d, want 2 and 1", st.TxSuppressed, st.RingDrops)
	}
	wantFIFO(t, &p, &s, 1)
	wantFIFO(t, &p, &live, 1)
	balanced(t, &p)
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
