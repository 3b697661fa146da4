// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and dispatches events in exact
// (time, insertion sequence) order. Simulated processes are runtime
// coroutines (iter.Pull) that run one at a time by passing a baton: only
// its holder — the goroutine inside RunUntil, or one process — runs
// simulation code, and nothing is ever scheduled by the Go scheduler. A
// process that blocks (Sleep, Park, Await) or exits keeps the baton and
// dispatches events itself: callbacks run inline on its stack and its
// own resume event just returns from the blocking call (no switch).
// Another process's resume event, or the end of the run (Stop, drained
// queue, deadline), makes it yield to RunUntil's goroutine, the one
// trampoline, which switches to the process the dispatcher named: a
// cross-process resume is two direct coroutine switches, no channel and
// no scheduler pass. A callback can also continue in a process with no
// event between them (Proc.Resume ends an Await in the callback's own
// event), which is how a scheduler built on callbacks hands a coroutine
// its result. Which stack pops an event is thus an accident of
// history — callbacks and process bodies must never rely on goroutine
// identity or stack depth — but what is popped, and in what (time, seq)
// order, is not, which with a seeded random source makes every
// simulation bit-reproducible.
//
// The package is intentionally free of real-time dependencies: virtual
// time is a time.Duration measured from the start of the run, and nothing
// ever consults the wall clock.
//
// The dispatch core is allocation-free in steady state and its cost does
// not grow with the pending-event population. Future events live in a
// hierarchical timing wheel (eight levels of 256 power-of-two buckets;
// see wheel.go for the structure and the determinism argument), giving
// O(1) schedule and cancel where a binary heap pays O(log n) sift work
// per event; the cursor jumps straight to the earliest pending
// timestamp, found in two bit scans, so an event is usually filed once.
// Same-instant events — the After(0) wakeup/interrupt/handoff
// shape that dominates protocol-heavy runs — bypass the wheel entirely
// through a FIFO run queue, the wheel's de facto level zero. Fired
// events are recycled through a freelist and cancellation unlinks the
// event from its bucket immediately instead of letting it ride the
// queue until its timestamp comes up. None of this is observable:
// events still execute in exact (time, sequence) order, held to the
// naive reference kernel in spec_test.go on randomized scripts.
//
// Lock-step instants are one kernel event. Every event nobody cancels is
// scheduled with AfterCoalesced, which merges a call into the open
// coalesced event when nothing has been scheduled since that event was
// filed (the sequence counter has not moved), the deadline is the same
// and its callback has not started: exactly when the call's own event
// would have run next with nothing in between. A broadcast's N-1
// deliveries, the interrupts they raise and the equal slices of the
// servers they wake thus cost one pop each, not N-1. A lone call files a
// plain Event; the first merge makes it a batch, whose callbacks live in
// fixed 64-slot chunks from one kernel freelist. A batched callback may
// hand the baton to a process (Proc.Resume): the batch stops there, the
// process runs, and the rest of the batch runs first at the next entry
// to the dispatcher, ahead of everything still queued — where the
// uncoalesced events would have run.
//
// A callback runs in one of two ways: popped as a kernel event, or inside
// a batch. A run of looks — a process spinning on memory — is neither: it
// is one entry in the repeat lane (lane.go), whose looks are skipped in
// bulk between ordinary events, and only the look that ends the run is a
// callback.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Kernel is a discrete-event simulation engine. Create one with New.
// A Kernel must only be used from event callbacks and from the processes
// it manages; it is not safe for concurrent use from outside the
// simulation.
type Kernel struct {
	now   time.Duration
	seq   uint64
	wheel wheel
	// due stages the events of the instant the wheel cursor last advanced
	// to, in (time, seq) order; dispatch drains it before consulting runq
	// (everything in due was scheduled before anything now entering runq,
	// so due seqs are strictly lower).
	due     []*Event
	dueHead int
	// runq is the same-instant FIFO fast path: events scheduled for the
	// current time in strictly increasing seq order, so FIFO order is
	// (time, seq) order. The clock cannot advance while runq is
	// non-empty, which keeps the invariant trivially true.
	runq fifo
	// free recycles fired and cancelled events. Events are reset before
	// reuse; holding a *Event after its callback has run (or after
	// cancelling it) is a caller bug.
	free []*Event
	// slab is where alloc cuts new events from when free is empty, and
	// slabs counts the slabs made so far (see slabSizes).
	slab  []Event
	slabs int
	rng   *rand.Rand
	procs []*Proc
	// ctr holds the counters. Dispatched is Pops + Batched + Skipped.
	ctr Counters
	// lane is the repeat lane, its runs sorted by (at, seq) from last to
	// first; win and moved are a window's scratch (lane.go), grown on
	// first use and reused.
	lane, moved []*Repeat
	win         []winRun
	// Coalescing state (see AfterCoalesced): the open coalesced event, the
	// value of seq when it was filed — if seq has moved since, another
	// event was scheduled in between and it is no longer adjacent — and
	// its batch, nil while it carries one callback.
	coalEv  *Event
	coalSeq uint64
	coalB   *batch
	// freeBatch is the chunk freelist, linked through batch.next.
	freeBatch *batch
	// rest is a batch that a callback's Proc.Resume interrupted: the next
	// dispatch runs the rest of it before anything else.
	rest *batch
	// root stands for the goroutine inside RunUntil: dispatch returns it
	// when the run has ended.
	root Proc
	// handoff is the next baton holder, left by a process that yields.
	handoff *Proc
	// handback is whom the running callback named with Proc.Resume.
	handback *Proc
	// deadline is the current RunUntil's, shared by every dispatcher;
	// limit is what dispatch compares each event with: the deadline, or
	// the instant before the lane's head if that is earlier (relimit).
	deadline, limit time.Duration
	stopped         bool
}

// New returns a Kernel whose random source is seeded with seed.
// Equal seeds produce identical runs.
func New(seed int64) *Kernel {
	// No coalesced event is open: seq never reaches coalSeq.
	return &Kernel{rng: rand.New(rand.NewSource(seed)), coalSeq: ^uint64(0)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// ReserveRunq pre-sizes the same-instant run queue to hold at least n
// events without growing (rounded up to a power of two). World builders
// call it with a multiple of the host count so steady-state dispatch
// never pays the ring-doubling copy.
func (k *Kernel) ReserveRunq(n int) { k.runq.reserve(n) }

// slabSizes are the event counts of a kernel's successive slabs, the last
// one repeating. A two-host world keeps eight to twelve events in flight,
// hence the small start; each count of 80-byte events (plus the
// allocator's 8-byte header above 512 bytes) fills a size class — 320,
// 1024, 2048, 4096 — to within 56 bytes, where 16, 32 or 64 events would
// round up by 5 to 10 %: more bytes than allocating them one by one.
var slabSizes = [...]int{4, 4, 4, 12, 25, 51}

// alloc takes an event from the freelist or the current slab.
func (k *Kernel) alloc() *Event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	if len(k.slab) == 0 {
		k.slab = make([]Event, slabSizes[min(k.slabs, len(slabSizes)-1)])
		k.slabs++
	}
	ev := &k.slab[0]
	k.slab = k.slab[1:]
	return ev
}

// release resets a popped event and returns it to the freelist. The
// closure and name references are dropped so they become collectable
// immediately.
func (k *Kernel) release(ev *Event) {
	*ev = Event{pos: posNone}
	k.free = append(k.free, ev)
}

// at schedules fn to run at absolute virtual time t. If t is in the past
// it runs at the current time, after already-queued events.
func (k *Kernel) at(t time.Duration, name string, fn func()) *Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	ev := k.alloc()
	ev.k = k
	ev.at = t
	ev.seq = k.seq
	ev.name = name
	ev.fn = fn
	ev.cancelled = false
	if t == k.now {
		ev.pos = posNone
		k.runq.push(ev)
	} else {
		k.wheel.schedule(ev)
	}
	return ev
}

// After is the cancellable timer: it schedules fn to run d from now
// (negative d is treated as zero) and returns the Event to Cancel. Once
// the callback has run the kernel recycles the Event, so references must
// not be retained past that point. An event nobody cancels is filed with
// AfterCoalesced instead.
func (k *Kernel) After(d time.Duration, name string, fn func()) *Event {
	return k.at(k.now+d, name, fn)
}

// AfterCoalesced is the fire-and-forget verb: it schedules fn to run d
// from now, like After, but returns nothing to cancel. It merges the call
// into the open coalesced event — the last one AfterCoalesced filed —
// when that is provably invisible to dispatch order: nothing has been
// scheduled since the event was filed (seq has not moved; merges consume
// none), the deadlines are equal and its callback
// has not started (dispatch takes ev.fn before calling it). Then fn's own
// event would have had the next seq at the same instant and run right
// after the event's last callback with nothing in between, so running it
// from that event changes nothing but the schedule/dispatch cost saved. A
// lone call files a plain Event (the miss path is one compare in front of
// at); the first merge makes it a batch. Dispatched() counts every
// callback.
func (k *Kernel) AfterCoalesced(d time.Duration, name string, fn func()) {
	t := k.now + max(d, 0)
	if ev := k.coalEv; k.coalSeq == k.seq && ev.fn != nil && ev.at == t {
		b := k.coalB
		if b == nil {
			// The first merge: the lone callback becomes the batch's first.
			b = k.allocBatch()
			b.fns[0], b.n = ev.fn, 1
			ev.fn = b.fn
			k.coalB = b
		}
		j := b.n % chunkSlots
		if j == 0 {
			c := k.allocBatch()
			b.tail.next = c
			b.tail = c
		}
		b.tail.fns[j] = fn
		b.n++
		return
	}
	k.coalEv = k.at(t, name, fn)
	k.coalSeq = k.seq
	// The new event may be a recycled interrupted batch's: it starts alone.
	k.coalB = nil
}

// chunkSlots is the callback capacity of one batch chunk.
const chunkSlots = 64

// batch holds a coalesced event's callbacks once it has two, in append
// (= would-be seq) order, in fixed chunks of chunkSlots from one kernel
// freelist — never a growing slice, which a 3 072-wide interrupt fan-out
// and the two-wide batches around it would keep regrowing for each
// other. The head chunk carries the batch's state; each chunk's fn is
// built once, so re-arming from the freelist allocates nothing.
type batch struct {
	fns  [chunkSlots]func()
	next *batch // the batch's next chunk, or the freelist's
	k    *Kernel
	fn   func() // drain
	// Head chunk only: the chunks appended to and run from, callbacks
	// appended and run.
	tail, cur *batch
	n, i      int
}

// allocBatch takes a chunk from the freelist, as an empty batch.
func (k *Kernel) allocBatch() *batch {
	b := k.freeBatch
	if b == nil {
		b = &batch{k: k}
		b.fn = b.drain
	} else {
		k.freeBatch = b.next
		b.next = nil
	}
	b.tail, b.cur = b, b
	b.n, b.i = 0, 0
	return b
}

// drain runs the batch's callbacks from where it stands, then frees its
// chunks. The event's pop counted the first callback; each later one
// counts its own just before it runs, as its own event's pop would.
// Stop is honoured between callbacks, where the uncoalesced kernel
// checks it before the next event: the rest is dropped, like the events
// a stopped kernel leaves queued. A callback's Proc.Resume ends its
// event, as it would uncoalesced: the rest waits in k.rest for the
// dispatcher's next entry, which comes when that process blocks, before
// anything else runs.
func (b *batch) drain() {
	// No call appends to a batch once it runs, so n stays put.
	k, c, n, i := b.k, b.cur, b.n, b.i
	for i < n && !k.stopped {
		j := i % chunkSlots
		if i > 0 {
			k.ctr.Batched++
			if j == 0 {
				c = c.next
			}
		}
		fn := c.fns[j]
		c.fns[j] = nil
		i++
		fn()
		if k.handback != nil && i < n {
			b.cur, b.i = c, i
			k.rest = b
			break
		}
	}
	if i < n {
		return // stopped, or the rest waits in k.rest
	}
	b.tail.next = k.freeBatch
	k.freeBatch = b
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Run executes events until the queue is empty or Stop is called.
// It returns the virtual time at which it stopped.
func (k *Kernel) Run() time.Duration {
	return k.RunUntil(1<<63 - 1)
}

// RunUntil executes events with timestamps no later than deadline, then
// advances the clock to min(deadline, time of last event) and returns it.
// If the queue drains earlier, the clock is left at the last event time;
// a deadline already in the past runs nothing and leaves the clock alone.
// The caller's goroutine is the trampoline of every hand-off between
// processes, so by iter.Pull's rules a panic raised by an event callback
// or a process body resurfaces here with its original value, whichever
// stack it was raised on, and a runtime.Goexit there ends this goroutine.
func (k *Kernel) RunUntil(deadline time.Duration) time.Duration {
	k.deadline = deadline
	k.relimit()
	for next := k.dispatch(); next != &k.root; next = k.handoff {
		k.ctr.Resumes++
		next.next()
	}
	return k.now
}

// dispatch executes events with timestamps no later than k.deadline, in
// (time, seq) order, until one of them resumes a process or the run ends
// (Stop, drained queue, deadline), and returns whom the baton belongs to
// next: that process, or the root. The caller is the baton holder:
// RunUntil, a process in Sleep or Park, or one that just exited. Each
// ordinary event is compared with k.limit alone; past it, beyond says
// whether the lane's window comes first or the run ends.
func (k *Kernel) dispatch() *Proc {
	// Only a hand-back leaves a rest, and a hand-back always returns from
	// dispatch: once per entry is often enough to look.
	if b := k.rest; b != nil {
		k.rest = nil
		b.drain()
		if p := k.handback; p != nil {
			k.handback = nil
			return p
		}
	}
	for !k.stopped {
		var ev *Event
		switch {
		case k.dueHead < len(k.due):
			if ev = k.due[k.dueHead]; ev.at > k.limit {
				if p, pop := k.beyond(ev.at, ev.seq); !pop {
					if p != nil {
						return p
					}
					continue
				}
			}
			k.due[k.dueHead] = nil
			k.dueHead++
		case k.runq.n > 0:
			if ev = k.runq.first(); ev.at > k.limit {
				if p, pop := k.beyond(ev.at, ev.seq); !pop {
					if p != nil {
						return p
					}
					continue
				}
			}
			k.runq.pop()
		default:
			k.due = k.due[:0]
			k.dueHead = 0
			adv := k.advance(int64(k.limit))
			if adv == advStaged {
				continue
			}
			if len(k.lane) == 0 {
				if adv == advEmpty {
					return &k.root
				}
				return k.expire()
			}
			// The lane's head or the deadline stopped the cursor: the wheel's
			// earliest event, if any, decides with the lane.
			at, seq := never, ^uint64(0)
			if adv == advDeadline {
				at, seq = k.wheel.peek()
			}
			p, pop := k.beyond(at, seq)
			if pop {
				k.advance(int64(at))
			} else if p != nil {
				return p
			}
			continue
		}
		if ev.cancelled {
			k.release(ev)
			continue
		}
		k.now = ev.at
		k.ctr.Pops++
		if p := ev.proc; p != nil {
			// Resume event: internal, so recycled before the process runs.
			// Only a panic that unwound p mid-park leaves one for the dead.
			k.release(ev)
			if p.state != procDead {
				return p
			}
			continue
		}
		fn := ev.fn
		ev.fn = nil
		fn()
		k.release(ev)
		if p := k.handback; p != nil {
			// The callback continues in p (Proc.Resume), as a process's own
			// wake event continues in the process: not even Stop comes between.
			k.handback = nil
			return p
		}
	}
	return &k.root
}

// expire ends the run at the deadline: the clock moves up to it, never
// back below the wheel cursor when the deadline is already behind it.
func (k *Kernel) expire() *Proc {
	if k.deadline > k.now {
		k.now = k.deadline
	}
	return &k.root
}

// Idle reports the names of processes that are parked (blocked waiting for
// an explicit wake, or in an Await that gave a reason). It is intended
// for tests and deadlock diagnostics.
func (k *Kernel) Idle() []string {
	var out []string
	for _, p := range k.procs {
		if p.state == procParked || p.state == procAwaiting && p.parkReason != nil {
			out = append(out, p.name)
		}
	}
	return out
}

// PendingEvents returns the number of kernel events waiting to run — a
// coalesced event counts once however many callbacks it carries, a run in
// the lane as its pending look. Cancelled events are unlinked (and stop
// counting) immediately, except for the bounded few already staged for
// the current instant.
func (k *Kernel) PendingEvents() int {
	return k.wheel.cnt + (len(k.due) - k.dueHead) + k.runq.n + len(k.lane)
}

// Dispatched returns the number of events executed so far, however each
// came to run: popped as a kernel event of its own (a run's ending look
// among them), run inside a coalesced event after its first
// (AfterCoalesced), or skipped as a lost look in the lane. It is a pure
// function of the simulation (virtual events, not wall time), so equal
// seeds report equal counts; sweeps use it for events/sec throughput
// records.
func (k *Kernel) Dispatched() uint64 { return k.ctr.Pops + k.ctr.Batched + k.ctr.Skipped }

// Counters are the kernel's own diagnostics, in no report; deterministic,
// like Dispatched, which is Pops + Batched + Skipped.
type Counters struct {
	Pops    uint64 // kernel events popped, and lane looks that ended a run
	Batched uint64 // callbacks run inside a coalesced event after its first
	Skipped uint64 // lane looks lost in bulk, in a window (lane.go)
	// Resumes is the hand-offs through RunUntil's trampoline, two coroutine
	// switches each; a process resuming itself, a callback and a host
	// task's step are not among them.
	Resumes uint64
	// Refiles is the times the wheel filed a resident event again (see
	// advance); every event costs one schedule plus its refiles.
	Refiles uint64
}

// Add adds o's counts to c's.
func (c *Counters) Add(o Counters) {
	c.Pops += o.Pops
	c.Batched += o.Batched
	c.Skipped += o.Skipped
	c.Resumes += o.Resumes
	c.Refiles += o.Refiles
}

// Counters returns the kernel's counters so far.
func (k *Kernel) Counters() Counters { return k.ctr }

// Event is a cancellable timer, returned by Kernel.After. After the
// callback has run the kernel resets and recycles the Event; callers
// that keep a *Event to Cancel it later must drop the reference once the
// event has fired.
type Event struct {
	at        time.Duration
	seq       uint64
	name      string
	fn        func()
	k         *Kernel
	cancelled bool
	// Wheel linkage: packed (level, bucket) position, posNone when not
	// wheel-resident, plus the doubly-linked bucket list. pos shares a
	// word with cancelled so that proc fits in the 80-byte size class.
	pos        int32
	next, prev *Event
	// proc, when set, makes this a resume event: instead of calling fn
	// the dispatcher passes the baton to proc (see Kernel.dispatch).
	proc *Proc
}

// Cancel prevents the event from running. A wheel-resident event is
// unlinked from its bucket and recycled immediately — O(1), no dead
// event rides the queue until its timestamp comes up — so Cancel must
// be called at most once, and the reference dropped afterwards (the
// same retention rule that applies after an event has fired). The
// callback is released either way, so everything the closure pins
// becomes collectable at once.
func (e *Event) Cancel() {
	e.cancelled = true
	e.fn = nil
	if e.pos >= 0 {
		e.k.wheel.unlink(e)
		e.k.release(e)
	}
}

// String names the event and, for a resume event, its process.
func (e *Event) String() string {
	name := e.name
	if e.proc != nil {
		name += " " + e.proc.name
	}
	return fmt.Sprintf("event %q @%v", name, e.at)
}

// fifo is a growable power-of-two ring buffer of events, indexed with
// mask arithmetic. Push order equals seq order for same-instant events,
// so pop order is dispatch order.
type fifo struct {
	buf  []*Event
	head int
	n    int
}

func (f *fifo) push(ev *Event) {
	if f.n == len(f.buf) {
		f.grow(f.n + 1)
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = ev
	f.n++
}

// reserve pre-sizes the ring to hold at least min events.
func (f *fifo) reserve(min int) {
	if min > len(f.buf) {
		f.grow(min)
	}
}

// grow replaces the ring with one of power-of-two capacity >= min
// (at least 64, at least double the current), preserving order.
func (f *fifo) grow(min int) {
	size := len(f.buf) * 2
	if size < 64 {
		size = 64
	}
	for size < min {
		size *= 2
	}
	buf := make([]*Event, size)
	for i := 0; i < f.n; i++ {
		buf[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = buf
	f.head = 0
}

func (f *fifo) first() *Event { return f.buf[f.head] }

func (f *fifo) pop() *Event {
	ev := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return ev
}
