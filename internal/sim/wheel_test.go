package sim

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestCascadeBoundaryTimes schedules events exactly on, just before and
// just after every level boundary of the wheel (256^k ns) and verifies
// they fire at their exact times in order — the cascade path must not
// round, lose or reorder events that straddle bucket spans.
func TestCascadeBoundaryTimes(t *testing.T) {
	k := New(1)
	var want []time.Duration
	for _, base := range []int64{1 << 8, 1 << 16, 1 << 24, 1 << 32, 1 << 40, 1 << 48, 1 << 56} {
		for _, off := range []int64{-1, 0, 1} {
			want = append(want, time.Duration(base+off))
		}
	}
	var got []time.Duration
	for _, at := range want {
		k.At(at, "boundary", func() { got = append(got, k.Now()) })
	}
	end := k.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v (full order %v)", i, got[i], want[i], got)
		}
	}
	if end != want[len(want)-1] {
		t.Errorf("Run returned %v, want %v", end, want[len(want)-1])
	}
}

// TestCascadeFromNonZeroNow re-runs boundary scheduling after the clock
// has advanced to an arbitrary offset, so bucket indices are computed
// against a cursor with non-zero bytes at several levels.
func TestCascadeFromNonZeroNow(t *testing.T) {
	k := New(1)
	start := time.Duration(3<<16 | 5<<8 | 7)
	k.At(start, "advance", func() {})
	k.Run()
	var got []time.Duration
	for _, d := range []time.Duration{1, 248, 249, 256, 1 << 16, 1<<24 + 3} {
		at := start + d
		k.At(at, "e", func() { got = append(got, k.Now()) })
	}
	k.Run()
	want := []time.Duration{start + 1, start + 248, start + 249, start + 256, start + 1<<16, start + 1<<24 + 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestCancelAfterCascade cancels an event after the wheel has already
// cascaded it to a finer level, and verifies the O(1) unlink really
// removed it: it never fires and stops counting as pending immediately.
func TestCancelAfterCascade(t *testing.T) {
	k := New(1)
	fired := false
	// 1<<16 + 50 sits two levels up at schedule time (cursor 0).
	ev := k.At(time.Duration(1<<16+50), "victim", func() { fired = true })
	// Run to just past the level-1 boundary: the victim has cascaded but
	// not fired.
	k.At(time.Duration(1<<16+10), "marker", func() {})
	k.RunUntil(time.Duration(1<<16 + 20))
	if got := k.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents = %d before cancel, want 1", got)
	}
	ev.Cancel()
	if got := k.PendingEvents(); got != 0 {
		t.Errorf("PendingEvents = %d after cancel, want 0 (unlink must be immediate)", got)
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired after cascade")
	}
}

// TestRunUntilDeadlineInsideBucketSpan stops a run between the wheel
// cursor's position and the next pending event, then schedules an
// earlier event inside that gap. The kernel must dispatch the new event
// first: the deadline stop must not strand the cursor beyond times that
// are still schedulable.
func TestRunUntilDeadlineInsideBucketSpan(t *testing.T) {
	k := New(1)
	var got []time.Duration
	k.At(2*time.Second, "late", func() { got = append(got, k.Now()) })
	if end := k.RunUntil(time.Second); end != time.Second {
		t.Fatalf("RunUntil = %v, want 1s", end)
	}
	k.At(1500*time.Millisecond, "mid", func() { got = append(got, k.Now()) })
	k.Run()
	want := []time.Duration{1500 * time.Millisecond, 2 * time.Second}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestRunUntilDeadlineInsideFirstBucket stops a run inside the span of
// the bucket that holds the only pending event, before the event — the
// case above does not reach it: its deadline is before the bucket's
// start — and then schedules one event earlier and one later than the
// stranded one. A cursor left at the deadline with the bucket still in
// place files the later event below the bucket, fires it first and runs
// the clock backward; the bucket must be refiled relative to the
// deadline.
func TestRunUntilDeadlineInsideFirstBucket(t *testing.T) {
	k := New(1)
	var got []time.Duration
	fire := func() {
		if n := len(got); n > 0 && k.Now() < got[n-1] {
			t.Errorf("clock ran backward: %#x after %#x", int64(k.Now()), int64(got[n-1]))
		}
		got = append(got, k.Now())
	}
	pending := func(want int) {
		t.Helper()
		if n := k.PendingEvents(); n != want {
			t.Fatalf("PendingEvents = %d, want %d", n, want)
		}
	}
	k.At(0x77359400, "stranded", fire) // level 3, bucket [0x77000000, 0x78000000)
	pending(1)
	if end := k.RunUntil(0x77100000); end != 0x77100000 || len(got) != 0 {
		t.Fatalf("RunUntil = %#x with %d fired, want the deadline and none", int64(end), len(got))
	}
	pending(1)
	k.At(0x77200000, "earlier", fire)
	k.At(0x77400000, "later", fire)
	pending(3)
	if end := k.Run(); end != 0x77400000 {
		t.Errorf("Run = %#x, want the last event's time", int64(end))
	}
	pending(0)
	want := []time.Duration{0x77200000, 0x77359400, 0x77400000}
	if !slices.Equal(got, want) {
		t.Fatalf("fired at %d, want %d", got, want)
	}
}

// TestRunUntilRepeatedDeadlinesAcrossSpans walks a deadline in steps
// that land inside bucket spans at several levels and verifies no event
// fires early and every event fires eventually.
func TestRunUntilRepeatedDeadlinesAcrossSpans(t *testing.T) {
	k := New(1)
	times := []time.Duration{100, 255, 256, 300, 1 << 16, 1<<16 + 1, 1 << 20, 1<<24 + 5}
	fired := make(map[time.Duration]bool)
	for _, at := range times {
		at := at
		k.At(at, "e", func() {
			if k.Now() != at {
				t.Errorf("event for %v fired at %v", at, k.Now())
			}
			fired[at] = true
		})
	}
	for deadline := time.Duration(64); deadline < 1<<25; deadline *= 2 {
		end := k.RunUntil(deadline)
		if end > deadline {
			t.Fatalf("RunUntil(%v) returned %v beyond the deadline", deadline, end)
		}
		for _, at := range times {
			if at > deadline && fired[at] {
				t.Fatalf("event for %v fired before deadline %v reached it", at, deadline)
			}
		}
	}
	k.Run()
	for _, at := range times {
		if !fired[at] {
			t.Errorf("event for %v never fired", at)
		}
	}
}

// TestWheelThenSameInstantOrder verifies the (time, seq) interleaving of
// wheel-resident events with same-instant events scheduled mid-dispatch:
// events already queued for time T run before an At(T) issued while T is
// executing, because the latter has a higher sequence number.
func TestWheelThenSameInstantOrder(t *testing.T) {
	k := New(1)
	var got []string
	T := 5 * time.Millisecond
	k.At(T, "first", func() {
		got = append(got, "first")
		k.At(T, "third", func() { got = append(got, "third") })
	})
	k.At(T, "second", func() { got = append(got, "second") })
	k.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestDispatchSteadyStateAllocs proves the wheel dispatch core is
// allocation-free in steady state across all three hot shapes: timer
// chains through the wheel, same-instant chains through the run queue,
// and schedule-then-cancel churn.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	k := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		ev := k.After(time.Millisecond, "retry", func() { panic("cancelled event ran") })
		ev.Cancel()
		if n >= 1000 {
			return
		}
		if n%2 == 0 {
			k.After(time.Microsecond, "tick", tick)
		} else {
			k.After(0, "tick", tick)
		}
	}
	k.After(time.Microsecond, "tick", tick)
	k.Run() // warm up freelists and ring capacity
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		k.After(time.Microsecond, "tick", tick)
		k.Run()
	})
	// Each AllocsPerRun round dispatches a fresh chain; the budget of
	// 0.1 allocs per round (not per event) catches any per-event leak.
	if allocs > 0.1 {
		t.Errorf("steady-state dispatch allocates %.2f/run, want 0", allocs)
	}
}

// TestWheelFilesOnce pins what the cursor jump buys, as refiles per
// dispatched event (the cursor that walked to bucket starts measured
// 1.64, 1.87 and 1.97 on these three): about one in four when the few
// pending timers are far apart — the later of two that happen to share
// a coarse bucket — none when a burst shares one instant, and for a
// burst at eight instants the seven that were not the earliest, once
// each.
func TestWheelFilesOnce(t *testing.T) {
	const events = 96 * 1000
	for _, shape := range []struct {
		name string
		arm  func(k *Kernel)
		most float64
	}{
		{"three timers, far apart", func(k *Kernel) { spreadTimers(k, events) }, 0.3},
		{"96 timers, one instant", func(k *Kernel) { burstTimers(k, events, 1) }, 0},
		{"96 timers, eight instants", func(k *Kernel) { burstTimers(k, events, 8) }, 7.0 / 8},
	} {
		k := New(1)
		shape.arm(k)
		k.Run()
		per := float64(k.Counters().Refiles) / float64(k.Dispatched())
		t.Logf("%s: %d refiles in %d events, %.4f per event", shape.name, k.Counters().Refiles, k.Dispatched(), per)
		if k.Dispatched() < events || per > shape.most {
			t.Errorf("%s: %.4f refiles per event over %d events, want at most %.4f over %d",
				shape.name, per, k.Dispatched(), shape.most, events)
		}
	}
}

// --- Differential fuzz: wheel vs reference priority list -------------

// refSched is the reference scheduler: a flat map scanned for the
// minimal (time, seq) entry. Sub-quadratic it is not, but it is
// obviously correct, and the fuzz driver runs identical adversarial op
// sequences against it and the real kernel, comparing dispatch logs.
type refSched struct {
	now  int64
	seq  uint64
	evs  map[int64]*refEvent
	drv  *fuzzDriver
	self int // index into drv.scheds
}

type refEvent struct {
	at  int64
	seq uint64
}

func newRefSched() *refSched { return &refSched{evs: make(map[int64]*refEvent)} }

func (r *refSched) schedule(id, delay int64) {
	at := r.now + delay
	if at < r.now {
		at = r.now
	}
	r.seq++
	r.evs[id] = &refEvent{at: at, seq: r.seq}
}

func (r *refSched) cancel(id int64) { delete(r.evs, id) }

func (r *refSched) next() (int64, *refEvent) {
	var bestID int64
	var best *refEvent
	for id, ev := range r.evs {
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			bestID, best = id, ev
		}
	}
	return bestID, best
}

func (r *refSched) runUntil(deadline int64) int64 {
	for {
		id, ev := r.next()
		if ev == nil {
			return r.now
		}
		if ev.at > deadline {
			r.now = deadline
			return r.now
		}
		delete(r.evs, id)
		r.now = ev.at
		r.drv.fired(r.self, id, r.now)
	}
}

func (r *refSched) pending() int { return len(r.evs) }

// kernelSched adapts the real Kernel to the fuzz driver, and checks the
// wheel's structure after every operation, those made from inside
// callbacks included.
type kernelSched struct {
	t    *testing.T
	k    *Kernel
	evs  map[int64]*Event
	drv  *fuzzDriver
	self int
}

func newKernelSched(t *testing.T) *kernelSched {
	return &kernelSched{t: t, k: New(1), evs: make(map[int64]*Event)}
}

func (s *kernelSched) schedule(id, delay int64) {
	s.evs[id] = s.k.After(time.Duration(delay), "fuzz", func() {
		delete(s.evs, id)
		checkWheel(s.t, s.k)
		s.drv.fired(s.self, id, int64(s.k.Now()))
	})
	checkWheel(s.t, s.k)
}

func (s *kernelSched) cancel(id int64) {
	if ev, ok := s.evs[id]; ok {
		delete(s.evs, id)
		ev.Cancel()
		checkWheel(s.t, s.k)
	}
}

func (s *kernelSched) runUntil(deadline int64) int64 {
	end := int64(s.k.RunUntil(time.Duration(deadline)))
	checkWheel(s.t, s.k)
	return end
}

// checkWheel verifies what advance and unlink rely on without looking:
// a summary bit is set iff its bitmap word is non-zero, a bitmap bit iff
// its bucket's list is non-empty; cnt is the number of events linked;
// every resident event sits at the level of the highest byte in which
// it differs from the cursor, in the bucket of that byte, which is
// greater than the cursor's (so no occupied bucket is behind the cursor
// and the cursor is inside none); every list is doubly linked and
// seq-sorted; and the cursor is not ahead of the clock.
func checkWheel(t *testing.T, k *Kernel) {
	t.Helper()
	w := &k.wheel
	linked := 0
	for level := range w.lvl {
		lv := &w.lvl[level]
		for i, word := range lv.occ {
			if summary := w.words>>(level<<2|i)&1 != 0; summary != (word != 0) {
				t.Fatalf("level %d word %d: summary bit %v, bitmap word %#x", level, i, summary, word)
			}
		}
		curByte := int(uint64(w.cur)>>(level*wheelBits)) & (wheelSlots - 1)
		for idx := range lv.slot {
			b := &lv.slot[idx]
			if occ := lv.occ[idx>>6]>>(idx&63)&1 != 0; occ != (b.head != nil) {
				t.Fatalf("level %d bucket %d: occupancy bit %v, list empty %v", level, idx, occ, b.head == nil)
			}
			var prev *Event
			for ev := b.head; ev != nil; prev, ev = ev, ev.next {
				linked++
				if ev.prev != prev || int(ev.pos) != level<<wheelBits|idx {
					t.Fatalf("level %d bucket %d: %v is mislinked (pos %#x)", level, idx, ev, ev.pos)
				}
				if prev != nil && prev.seq >= ev.seq {
					t.Fatalf("level %d bucket %d: seq %d is filed ahead of seq %d", level, idx, prev.seq, ev.seq)
				}
				d := uint64(ev.at) ^ uint64(w.cur)
				if at := int(uint64(ev.at)>>(level*wheelBits)) & (wheelSlots - 1); (bits.Len64(d)-1)>>3 != level || at != idx || idx <= curByte {
					t.Fatalf("level %d bucket %d holds %v with the cursor at %#x", level, idx, ev, w.cur)
				}
			}
			if b.tail != prev {
				t.Fatalf("level %d bucket %d: tail is not the last event", level, idx)
			}
		}
	}
	if linked != w.cnt {
		t.Fatalf("%d events linked, cnt = %d", linked, w.cnt)
	}
	if w.cur > int64(k.now) {
		t.Fatalf("cursor %#x is ahead of the clock %#x", w.cur, int64(k.now))
	}
}

func (s *kernelSched) pending() int { return s.k.PendingEvents() }

type fuzzSched interface {
	schedule(id, delay int64)
	cancel(id int64)
	runUntil(deadline int64) int64
	pending() int
}

// fuzzDriver replays one deterministic adversarial op sequence against
// a scheduler: events spawn children and cancel peers from inside their
// callbacks (keyed by event id, so both runs derive identical actions),
// while the main loop schedules, cancels and steps RunUntil deadlines
// that land inside bucket spans at every level.
type fuzzDriver struct {
	seed   int64
	scheds []fuzzSched
	live   [][]int64 // per sched: live event ids in creation order
	logs   [][][2]int64
	nextID []int64
}

// delayPalette draws adversarial delays: zero (same-instant), bucket
// boundaries at every wheel level ±1, and random fills.
func delayPalette(rng *rand.Rand) int64 {
	fixed := []int64{0, 0, 1, 2, 255, 256, 257, 1<<16 - 1, 1 << 16, 1<<16 + 1,
		1<<24 - 1, 1 << 24, 1<<24 + 1, 1 << 32, -5}
	switch rng.Intn(4) {
	case 0:
		return fixed[rng.Intn(len(fixed))]
	case 1:
		return rng.Int63n(1000)
	case 2:
		return rng.Int63n(1 << 20)
	default:
		return rng.Int63n(1 << 34)
	}
}

// fired records a dispatch and performs the event's scripted actions:
// sometimes spawn children (subcritical: well under one child per
// dispatch on average, plus a hard id cap, so every run drains),
// sometimes cancel a live peer.
func (d *fuzzDriver) fired(which int, id, at int64) {
	d.logs[which] = append(d.logs[which], [2]int64{id, at})
	d.removeLive(which, id)
	rng := rand.New(rand.NewSource(d.seed<<20 ^ id))
	if rng.Intn(3) == 0 && d.nextID[which] < 4000 {
		for i, n := 0, rng.Intn(3); i < n; i++ {
			d.spawn(which, rng)
		}
	}
	if rng.Intn(3) == 0 && len(d.live[which]) > 0 {
		d.cancel(which, d.live[which][rng.Intn(len(d.live[which]))])
	}
}

func (d *fuzzDriver) spawn(which int, rng *rand.Rand) { d.add(which, delayPalette(rng)) }

// add schedules a new live event delay from now and returns its id.
func (d *fuzzDriver) add(which int, delay int64) int64 {
	id := d.nextID[which]
	d.nextID[which]++
	d.scheds[which].schedule(id, delay)
	d.live[which] = append(d.live[which], id)
	return id
}

// cancel cancels a live event.
func (d *fuzzDriver) cancel(which int, id int64) {
	d.scheds[which].cancel(id)
	d.removeLive(which, id)
}

func (d *fuzzDriver) removeLive(which int, id int64) {
	l := d.live[which]
	for i, v := range l {
		if v == id {
			d.live[which] = append(l[:i], l[i+1:]...)
			return
		}
	}
}

// burst schedules 2-64 events inside one bucket span of the given level
// (1 or 2), the span starting at the first boundary of that level at
// least one level-0 window ahead of now, on 1-8 timestamps drawn in it,
// so some share an instant and some do not; two times in three it then
// cancels the burst's earliest event, the one a lazy minimum would have
// been read from. It returns the span's start.
func (d *fuzzDriver) burst(which int, now int64, level int, rng *rand.Rand) int64 {
	span := int64(1) << (level * wheelBits)
	start := (now+wheelSlots)&^(span-1) + span
	offsets := make([]int64, 1+rng.Intn(8))
	for i := range offsets {
		offsets[i] = rng.Int63n(span)
	}
	first, firstAt := int64(-1), int64(0)
	for i, n := 0, 2+rng.Intn(63); i < n; i++ {
		at := start + offsets[rng.Intn(len(offsets))]
		if id := d.add(which, at-now); first < 0 || at < firstAt {
			first, firstAt = id, at
		}
	}
	if rng.Intn(3) > 0 {
		d.cancel(which, first)
	}
	return start
}

// TestWheelMatchesReferenceModel is the randomized differential test:
// identical schedule/cancel/RunUntil interleavings against the wheel
// kernel and the reference priority list must produce identical
// dispatch logs, final clocks and pending counts, and checkWheel must
// hold after every operation. The dense mode adds what the palette's
// sparse draws rarely produce: bursts of events inside one level-1 or
// level-2 bucket span, at equal and at distinct timestamps, with the
// earliest cancelled, and deadlines that step through that span. Three
// mutations of wheel.go it must catch (each shown to fail in PR 23):
// advance taking the bucket's head as its minimum (lists are
// seq-sorted, not time-sorted); unlink leaving the summary bit set when
// Cancel empties a bitmap word; and a deadline inside the first
// bucket's span moving the cursor there with the bucket left in place.
func TestWheelMatchesReferenceModel(t *testing.T) {
	for _, dense := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 7, 42, 1234, 98765, 31337} {
			wheelDifferential(t, seed, dense)
		}
	}
}

func wheelDifferential(t *testing.T, seed int64, dense bool) {
	ks := newKernelSched(t)
	rs := newRefSched()
	d := &fuzzDriver{
		seed:   seed,
		scheds: []fuzzSched{ks, rs},
		live:   make([][]int64, 2),
		logs:   make([][][2]int64, 2),
		nextID: make([]int64, 2),
	}
	ks.drv, ks.self = d, 0
	rs.drv, rs.self = d, 1

	// The driver rng scripts the main loop; per-sched action streams
	// are derived from event ids inside fired().
	mainRng := rand.New(rand.NewSource(seed))
	nows := make([]int64, 2)
	steps := make([]func(which int), 0, 64)
	for i := 0; i < 8; i++ {
		steps = append(steps, func(which int) {
			d.spawn(which, rand.New(rand.NewSource(seed^int64(100+i))))
		})
	}
	for i := 0; i < 48; i++ {
		kind := mainRng.Intn(4)
		if dense && i%3 == 0 {
			kind = 4
		}
		switch kind {
		case 0:
			i := i
			steps = append(steps, func(which int) {
				d.spawn(which, rand.New(rand.NewSource(seed^int64(1000+i))))
			})
		case 1:
			pick := mainRng.Int63()
			steps = append(steps, func(which int) {
				if len(d.live[which]) == 0 {
					return
				}
				d.cancel(which, d.live[which][pick%int64(len(d.live[which]))])
			})
		case 4:
			// A burst, then deadlines at up to four points inside its span,
			// in order; events fired on the way spawn into the span too.
			level := 1 + i/3%2
			points := make([]int64, mainRng.Intn(5))
			for j := range points {
				points[j] = mainRng.Int63n(1 << (level * wheelBits))
			}
			slices.Sort(points)
			burstSeed := seed ^ int64(2000+i)
			steps = append(steps, func(which int) {
				start := d.burst(which, nows[which], level, rand.New(rand.NewSource(burstSeed)))
				for _, p := range points {
					nows[which] = d.scheds[which].runUntil(max(nows[which], start+p))
				}
			})
		default:
			delta := delayPalette(mainRng)
			if delta < 0 {
				delta = 0
			}
			steps = append(steps, func(which int) {
				nows[which] = d.scheds[which].runUntil(nows[which] + delta)
			})
		}
	}
	steps = append(steps, func(which int) {
		nows[which] = d.scheds[which].runUntil(1<<63 - 1)
	})

	for _, step := range steps {
		step(0)
		step(1)
	}

	if nows[0] != nows[1] {
		t.Fatalf("seed %d: final clock diverged: wheel %d, reference %d", seed, nows[0], nows[1])
	}
	if ks.pending() != rs.pending() {
		t.Fatalf("seed %d: pending diverged: wheel %d, reference %d", seed, ks.pending(), rs.pending())
	}
	lw, lr := d.logs[0], d.logs[1]
	if len(lw) != len(lr) {
		t.Fatalf("seed %d: dispatch count diverged: wheel %d, reference %d", seed, len(lw), len(lr))
	}
	for i := range lw {
		if lw[i] != lr[i] {
			t.Fatalf("seed %d: dispatch %d diverged: wheel fired id %d at %d, reference id %d at %d",
				seed, i, lw[i][0], lw[i][1], lr[i][0], lr[i][1])
		}
	}
	if len(lw) == 0 {
		t.Fatalf("seed %d: fuzz run dispatched nothing; ops are not reaching the kernel", seed)
	}
	ks.k.Shutdown()
}
