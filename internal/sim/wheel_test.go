package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"
	"time"
)

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

// TestAfterCoalescedChunks: batches wider than a chunk run in append
// order across chunk boundaries, also when a callback at either side of
// a boundary Resumes a process and the rest continues from there, and
// their chunks come back to the freelist for the next batch.
func TestAfterCoalescedChunks(t *testing.T) {
	for _, width := range []int{chunkSlots, chunkSlots + 1, 3*chunkSlots + 5} {
		for _, at := range []int{-1, chunkSlots - 1, chunkSlots, width - 1} {
			k := New(1)
			var got, want []int
			var a *Proc
			a = k.Spawn("a", func(p *Proc) {
				p.Await(nil)
				got = append(got, -1)
			})
			fan := func(resumeAt int) {
				for i := 0; i < width; i++ {
					i := i
					k.AfterCoalesced(time.Millisecond, "intr", func() {
						got = append(got, i)
						if i == resumeAt {
							a.Resume()
						}
					})
					if want = append(want, i); i == resumeAt {
						want = append(want, -1)
					}
				}
			}
			fan(at)
			// The second batch is filed once the first has run.
			k.After(2*time.Millisecond, "refan", func() { fan(-1) })
			if n := k.PendingEvents(); n != 3 {
				t.Errorf("width %d: %d events pending, want a's start, the batch and refan", width, n)
			}
			k.Run()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("width %d, Resume at %d: ran %v, want %v", width, at, got, want)
			}
			if k.Counters().Pops != 4 || k.Dispatched() != uint64(2+2*width) {
				t.Errorf("width %d, Resume at %d: %d callbacks in %d events, want %d in 4", width, at, k.Dispatched(), k.Counters().Pops, 2+2*width)
			}
			chunks := 0
			for c := k.freeBatch; c != nil; c = c.next {
				chunks++
			}
			if want := (width + chunkSlots - 1) / chunkSlots; chunks != want {
				t.Errorf("width %d, Resume at %d: %d chunks on the freelist after two batches, want the first's %d reused", width, at, chunks, want)
			}
			k.Shutdown()
		}
	}
}

// checkWheel verifies what advance and unlink rely on without looking:
// a summary bit is set iff its bitmap word is non-zero, a bitmap bit iff
// its bucket's list is non-empty; cnt is the number of events linked;
// every resident event sits at the level of the highest byte in which
// it differs from the cursor, in the bucket of that byte, which is
// greater than the cursor's (so no occupied bucket is behind the cursor
// and the cursor is inside none); every list is doubly linked and
// seq-sorted; and the cursor is not ahead of the clock. It returns the
// first that fails, or nil.
func checkWheel(k *Kernel) error {
	w := &k.wheel
	linked := 0
	for level := range w.lvl {
		lv := &w.lvl[level]
		for i, word := range lv.occ {
			if summary := w.words>>(level<<2|i)&1 != 0; summary != (word != 0) {
				return fmt.Errorf("level %d word %d: summary bit %v, bitmap word %#x", level, i, summary, word)
			}
		}
		curByte := int(uint64(w.cur)>>(level*wheelBits)) & (wheelSlots - 1)
		for idx := range lv.slot {
			b := &lv.slot[idx]
			if occ := lv.occ[idx>>6]>>(idx&63)&1 != 0; occ != (b.head != nil) {
				return fmt.Errorf("level %d bucket %d: occupancy bit %v, list empty %v", level, idx, occ, b.head == nil)
			}
			var prev *Event
			for ev := b.head; ev != nil; prev, ev = ev, ev.next {
				linked++
				if ev.prev != prev || int(ev.pos) != level<<wheelBits|idx {
					return fmt.Errorf("level %d bucket %d: %v is mislinked (pos %#x)", level, idx, ev, ev.pos)
				}
				if prev != nil && prev.seq >= ev.seq {
					return fmt.Errorf("level %d bucket %d: seq %d is filed ahead of seq %d", level, idx, prev.seq, ev.seq)
				}
				d := uint64(ev.at) ^ uint64(w.cur)
				if at := int(uint64(ev.at)>>(level*wheelBits)) & (wheelSlots - 1); (bits.Len64(d)-1)>>3 != level || at != idx || idx <= curByte {
					return fmt.Errorf("level %d bucket %d holds %v with the cursor at %#x", level, idx, ev, w.cur)
				}
			}
			if b.tail != prev {
				return fmt.Errorf("level %d bucket %d: tail is not the last event", level, idx)
			}
		}
	}
	if linked != w.cnt {
		return fmt.Errorf("%d events linked, cnt = %d", linked, w.cnt)
	}
	if w.cur > int64(k.now) {
		return fmt.Errorf("cursor %#x is ahead of the clock %#x", w.cur, int64(k.now))
	}
	return nil
}
