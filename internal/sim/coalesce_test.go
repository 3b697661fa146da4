package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAfterCoalescedMergesAdjacent: back-to-back same-deadline calls with
// nothing scheduled in between share one kernel event, run in call order,
// and are counted as individual dispatches.
func TestAfterCoalescedMergesAdjacent(t *testing.T) {
	k := New(1)
	var order []int
	k.After(0, "setup", func() {
		for i := 0; i < 3; i++ {
			i := i
			k.AfterCoalesced(time.Millisecond, "intr", func() { order = append(order, i) })
		}
		if got := k.PendingEvents(); got != 1 {
			t.Errorf("3 adjacent coalesced callbacks occupy %d events, want 1", got)
		}
	})
	k.Run()
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("coalesced callbacks ran as %v, want %v", order, want)
	}
	// setup + 3 logical events: Dispatched must match an uncoalesced run.
	if got := k.Dispatched(); got != 4 {
		t.Errorf("Dispatched() = %d, want 4 (each batched callback counts)", got)
	}
}

// TestAfterCoalescedNoMergeAcrossSchedule: an ordinary event scheduled
// between two coalesced calls breaks adjacency — the kernel cannot prove
// the merge invisible, so the second call gets its own event and overall
// dispatch order is the plain (time, seq) order.
func TestAfterCoalescedNoMergeAcrossSchedule(t *testing.T) {
	k := New(1)
	var order []string
	k.After(0, "setup", func() {
		k.AfterCoalesced(time.Millisecond, "intr", func() { order = append(order, "c0") })
		k.After(time.Millisecond, "plain", func() { order = append(order, "p") })
		k.AfterCoalesced(time.Millisecond, "intr", func() { order = append(order, "c1") })
		if got := k.PendingEvents(); got != 3 {
			t.Errorf("interleaved schedule left %d events, want 3 (no merge)", got)
		}
	})
	k.Run()
	if want := []string{"c0", "p", "c1"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestAfterCoalescedNoMergeAcrossDeadline: same adjacency, different
// deadline — never merged.
func TestAfterCoalescedNoMergeAcrossDeadline(t *testing.T) {
	k := New(1)
	var order []string
	k.After(0, "setup", func() {
		k.AfterCoalesced(2*time.Millisecond, "intr", func() { order = append(order, "late") })
		k.AfterCoalesced(time.Millisecond, "intr", func() { order = append(order, "early") })
	})
	k.Run()
	if want := []string{"early", "late"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestAfterCoalescedBatchClosesOnFire: an event whose callback has
// started takes no appends, even when the next coalesced call has the
// same deadline and nothing was scheduled in between (callbacks that
// schedule nothing leave the sequence counter untouched — exactly the
// trap), whether the event is a lone callback or a batch.
func TestAfterCoalescedBatchClosesOnFire(t *testing.T) {
	for width := 1; width <= 3; width++ {
		k := New(1)
		var ran []string
		for i := 1; i < width; i++ {
			k.AfterCoalesced(0, "intr", func() { ran = append(ran, "first") })
		}
		k.AfterCoalesced(0, "intr", func() {
			ran = append(ran, "first")
			k.AfterCoalesced(0, "intr", func() { ran = append(ran, "second") })
		})
		k.Run()
		if got, want := strings.Join(ran, " "), strings.Repeat("first ", width)+"second"; got != want {
			t.Errorf("width %d: ran %v, want %v", width, got, want)
		}
		if k.Dispatched() != uint64(width+1) || k.Counters().Pops != 2 {
			t.Errorf("width %d: %d callbacks in %d events, want %d in 2", width, k.Dispatched(), k.Counters().Pops, width+1)
		}
	}
}

// TestAfterCoalescedStopSuppressesRest: a batched callback that stops
// the kernel suppresses the remaining callbacks of its batch, exactly
// as uncoalesced events queued behind a Stop never run — and the
// suppressed callbacks are not counted as dispatched.
func TestAfterCoalescedStopSuppressesRest(t *testing.T) {
	k := New(1)
	var ran []string
	k.After(0, "setup", func() {
		k.AfterCoalesced(time.Millisecond, "intr", func() { ran = append(ran, "a"); k.Stop() })
		k.AfterCoalesced(time.Millisecond, "intr", func() { ran = append(ran, "b") })
	})
	k.Run()
	if want := []string{"a"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v (Stop must suppress the rest of the batch)", ran, want)
	}
	if got := k.Dispatched(); got != 2 {
		t.Errorf("Dispatched() = %d, want 2 (setup + first callback only)", got)
	}

	// The same when a callback Resumes a process and the process stops the
	// kernel: the rest of the batch waits for the process to block, and
	// then it is behind a Stop.
	k = New(1)
	defer k.Shutdown()
	ran = nil
	a := k.Spawn("stopper", func(p *Proc) {
		p.Await(nil)
		ran = append(ran, "proc")
		k.Stop()
	})
	k.AfterCoalesced(time.Millisecond, "intr", func() { ran = append(ran, "a"); a.Resume() })
	k.AfterCoalesced(time.Millisecond, "intr", func() { ran = append(ran, "b") })
	k.Run()
	if want := []string{"a", "proc"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("ran %v, want %v (Stop must suppress the rest of an interrupted batch)", ran, want)
	}
}

// TestAfterCoalescedDifferential drives two kernels through an identical
// random script of plain and coalescible schedules — one kernel using
// AfterCoalesced, the reference using After for everything — and
// requires identical execution traces (virtual time and order) plus
// identical dispatch counts. Plain After and At calls at the same
// deadline fall between the appends, and callbacks Resume processes
// waiting in Await, which then schedule bursts of their own: a batch is
// interrupted mid-way and its rest must run before those. This is the
// order-neutrality proof obligation for coalescing, at the kernel layer.
func TestAfterCoalescedDifferential(t *testing.T) {
	type rec struct {
		at time.Duration
		id int
	}
	const nprocs = 3
	run := func(coalesce bool, seed int64) ([]rec, uint64, uint64) {
		k := New(seed)
		defer k.Shutdown()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var trace []rec
		id := 0
		var procs [nprocs]*Proc
		var awaiting [nprocs]bool
		// A recursive event storm: each fired event may Resume a process
		// and schedule a burst of interrupts (the fan-out shape), plain
		// events at the same deadline (adjacency breakers), or nothing.
		var fire func(depth int) func()
		burst := func(depth int) {
			d := time.Duration(rng.Intn(3)) * 100 * time.Microsecond
			for i, n := 0, rng.Intn(4); i < n; i++ {
				switch rng.Intn(8) {
				case 0:
					k.After(d, "plain", fire(depth+1))
				case 1:
					k.At(k.Now()+d, "plain", fire(depth+1))
				default:
					if coalesce {
						k.AfterCoalesced(d, "intr", fire(depth+1))
					} else {
						k.After(d, "intr", fire(depth+1))
					}
				}
			}
		}
		fire = func(depth int) func() {
			myID := id
			id++
			return func() {
				trace = append(trace, rec{k.Now(), myID})
				if depth >= 3 {
					return
				}
				if pid := rng.Intn(2 * nprocs); pid < nprocs && awaiting[pid] {
					awaiting[pid] = false
					procs[pid].Resume()
				}
				burst(depth)
			}
		}
		for pid := range procs {
			pid := pid
			procs[pid] = k.Spawn("p", func(p *Proc) {
				for {
					awaiting[pid] = true
					p.Await(nil)
					trace = append(trace, rec{k.Now(), -1 - pid})
					burst(1)
				}
			})
		}
		for i := 0; i < 8; i++ {
			k.After(time.Duration(i)*50*time.Microsecond, "seed", fire(0))
		}
		k.Run()
		return trace, k.Dispatched(), k.Counters().Pops
	}
	var resumed, merged uint64
	for seed := int64(1); seed <= 200; seed++ {
		got, gotN, pops := run(true, seed)
		want, wantN, _ := run(false, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: coalesced trace diverges from reference\n got %v\nwant %v", seed, got, want)
		}
		if gotN != wantN {
			t.Fatalf("seed %d: dispatch count %d, reference %d", seed, gotN, wantN)
		}
		merged += gotN - pops
		for _, r := range got {
			if r.id < 0 {
				resumed++
			}
		}
	}
	// The comparison is only as good as the ground it covers.
	if merged < 1000 || resumed < 1000 {
		t.Errorf("%d callbacks merged and %d process resumes in 200 scripts", merged, resumed)
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
			k.Run()
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Errorf("width %d, Resume at %d: ran %d callbacks, diverging at %d: %v, want %d: %v",
					width, at, len(got), i, got[i:min(i+3, len(got))], len(want), want[i:min(i+3, len(want))])
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
