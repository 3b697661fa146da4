package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"mether/internal/choice"
)

// TestKernelMatchesSpec holds the Kernel to spec, the reference kernel
// below, on randomized scripts (script_test.go): after every RunUntil the
// trace, clock, Dispatched(), Idle(), Stopped() and Counters().Pops (with
// the looks the lane skipped, which the spec pops as events of their own)
// must agree. Where the profile says so, the real side runs checkWheel
// after every operation. Each profile must cover its floor of ground. A
// failing seed's tape is shrunk and printed as a FuzzKernel corpus file
// (testdata/fuzz holds one); sim_test.go keeps fixed scripts.
//
// Each mutation below, made to a copy of the kernel, fails the profiles
// listed at the first seed given, whose tape (bytes drawn, its profile's
// ahead) shrinks as shown, and the fixed or kept tests named. The lane
// profile replaced one that held Kernel.Continue, which is gone, with its
// four rows; the older rows' counts are for the other three profiles,
// but for the rows that name the queue, made again on the one queue of
// the current instant over all four:
//
//	RunUntil behind the clock moves it back      baton 4, wheel 1, coalesce 1               252→7    TestRunUntilNeverMovesClockBack
//	Resume goes through a fresh After(0) event   baton 1, coalesce 1                        382→10   TestResumeFromCoalescedCallback, 5 more
//	wheel: advance takes the bucket head as min  wheel 1, baton 4                           587→17   TestCascadeBoundaryTimes, 5 more
//	wheel: unlink leaves the summary bit set     wheel 1 (checkWheel), baton 12 (a panic)   587→11   TestCancelAfterCascade
//	wheel: a deadline inside the first bucket    wheel 1                                    587→52   TestRunUntilDeadlineInsideFirstBucket
//	  moves the cursor there, the bucket stays
//	batch: no rest, it runs on past a Resume     coalesce 1, baton 17 (a panic)             137→27   TestResumeFromCoalescedCallback
//	batch: coalB kept when a new event is filed  coalesce 1, baton 17                       137→16   TestCoalescedBatchNotReusedAfterResume
//	batch: a merge into a started event          coalesce 5                                 95→9     TestAfterCoalescedBatchClosesOnFire
//	batch: the rest runs behind runq             coalesce 1, baton 17, lane 155             137→27   TestResumeFromCoalescedCallback
//	batch: Stop ignored in a batch               coalesce 6                                 242→127  TestAfterCoalescedStopSuppressesRest
//	batch: Stop ignored in a batch's rest        coalesce 101                               267→67   TestAfterCoalescedStopSuppressesRest
//	batch: the rest's chunk cursor lost          —                                          —        TestAfterCoalescedChunks (panics)
//	batch: only the head chunk freed             —                                          —        TestAfterCoalescedChunks (the freelist)
//	lane: a look at the instant of the window's  lane 2                                     124→32
//	  bound or cut skipped whatever its order
//	lane: fresh seqs given in window order, not  lane 77                                    182→104
//	  in the order the looks were filed
//	lane: skipped looks left uncounted           lane 1                                     138→13
//	lane: a window that crosses the deadline     lane 3                                     187→11
//	lane: a window that runs on past a Stop its  lane 7 (a panic)                           186→60
//	  ending look's callback made
//	lane: Repeat takes no seq, so AfterCoalesced lane 46                                    186→50
//	  merges across it
//	lane: first: the shorter slice filed first   lane 33                                    230→126
//	lane: the ending look runs before the        lane 355                                   249→100
//	  wheel's events of its instant are staged
//	lane: first: the shorter period filed first  lane 77                                    182→105
//	lane: first: the run that started earlier    lane 40                                    237→66
//	  filed first
//	queue: popped from its back                  baton 1, wheel 2, coalesce 1, lane 2       382→1    TestSameTimeEventsRunInInsertionOrder, 10 more
//	queue: reset on every pop                    baton 1, wheel 2, coalesce 1, lane 2       382→1    TestSameTimeEventsRunInInsertionOrder, 17 more
//	queue: not cut back when drained             —                                          —        TestRunqResetsWhenDrained
func TestKernelMatchesSpec(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := range profiles {
		p := &profiles[i]
		t.Run(p.name, func(t *testing.T) {
			n, c := p.seeds, cover{}
			seeded := func(tp *choice.Tape) error { _, err := play(p.script(tp.Choose), p.check, &c); return err }
			for seed := 1; seed <= n; seed++ {
				tp := choice.Seeded(int64(seed))
				if err := choice.Run(tp, seeded); err != nil {
					drawn := append(choice.Put(nil, len(profiles), i), tp.Bytes()...)
					t.Fatalf("seed %d: %v\n%s", seed, err, choice.Explain("FuzzKernel", drawn, fuzz))
				}
			}
			t.Logf("%d scripts: %+v", n, c)
			if !p.floor(&c, n) {
				t.Errorf("%d scripts covered too little ground: %+v", n, c)
			}
		})
	}
	waitGoroutines(t, before)
}

// FuzzKernel plays the script its input draws as a choice tape
// (internal/choice), with every check on.
func FuzzKernel(f *testing.F) {
	for _, in := range []string{"", "\x00\x05\x09", "\x01\x02\x03\x04", "\x01\x07\x01", "\x02\xff\x10\x80", "\x03\x01\x30\x22\x09"} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := choice.Run(choice.New(in), fuzz); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzz plays the script a tape draws, its profile first, with every
// check on: a failing seed's tape, its profile put ahead, fails here too.
func fuzz(tp *choice.Tape) error {
	p := &profiles[tp.Choose(len(profiles))]
	_, err := play(p.script(tp.Choose), true, &cover{})
	return err
}

// profile is a kind of randomized script: what its programs, callbacks
// and rounds are drawn from, and the ground its seeds must cover.
type profile struct {
	name         string
	seeds        int
	units        []time.Duration // one per script
	palette      []time.Duration // delays, in units
	spread       int             // half the time a delay is up to this many units instead; 0 for never
	gap          int             // a deadline steps up to this many units more
	procs, ops   int             // 1 to procs programs of up to ops ops
	cbs, perCb   int             // 1 to cbs callbacks of up to perCb acts
	prog, cb     [nActs]int      // act weights in programs and callbacks (aBase: a burst)
	top          [nActs]int      // and in rounds
	seed, rounds int             // acts of the first round, after it spawns its roots; rounds
	burst        int             // a burst outside dense rounds is 1 to burst events at one instant
	dense        bool            // in every other script every third round bursts into a level-1 or -2 span, stepping deadlines through it
	runs, flags  int             // 1 to runs runs of looks, reading flags flags
	stops        int             // one script in stops may stop
	budget       int             // callback events per script
	check        bool            // checkWheel after every operation
	floor        func(c *cover, scripts int) bool
}

var profiles = [...]profile{{
	// Processes in every state, their wakes and hand-backs, deadlines that
	// step forward and once back.
	name: "baton", seeds: 400,
	units:   []time.Duration{1},
	palette: []time.Duration{0, 0, 1, 2, 255, 256, 257, 1000, 1000, 65536, 70000, 1 << 20},
	gap:     3000, procs: 8, ops: 27, cbs: 8, perCb: 3,
	prog:   [nActs]int{aSleep: 24, aPark: 8, aAwait: 14, aWake: 18, aSpawn: 6, aAfter: 14, aCoal: 10, aCancel: 9, aStop: 1},
	cb:     [nActs]int{aResume: 8, aWake: 3, aSpawn: 1, aAfter: 1, aCoal: 1, aStop: 1},
	rounds: 6, stops: 4, budget: 1000,
	floor: func(c *cover, n int) bool { return c.hands >= 2*n },
}, {
	// Timers only, far apart and at every level boundary; callbacks file
	// and cancel more. Every other script is dense: every third round
	// bursts inside one level-1 or -2 bucket span, on equal and distinct
	// instants, its earliest often cancelled, and steps deadlines through
	// the span.
	name: "wheel", seeds: 14,
	units:   []time.Duration{1},
	palette: []time.Duration{0, 0, 1, 2, 255, 256, 257, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<24 - 1, 1 << 24, 1<<24 + 1, 1 << 32, -5},
	spread:  1 << 34, procs: 1, cbs: 16, perCb: 2,
	cb:   [nActs]int{aAfter: 3, aCancel: 3},
	top:  [nActs]int{aAfter: 2, aCancel: 1},
	seed: 8, rounds: 48, dense: true, budget: 1000, check: true,
	floor: func(c *cover, n int) bool { return c.wheel > 0 && c.bursts >= 5*n },
}, {
	// Lock-step instants: bursts of AfterCoalesced among plain timers at
	// the same deadline, callbacks resuming processes that burst too.
	name: "coalesce", seeds: 200,
	units:   []time.Duration{100 * time.Microsecond},
	palette: []time.Duration{0, 1, 2},
	procs:   3, ops: 30, cbs: 12, perCb: 3,
	prog:  [nActs]int{aAwait: 3, aBase: 3, aStop: 1},
	cb:    [nActs]int{aResume: 4, aBase: 4, aAfter: 1, aCoal: 3, aStop: 1},
	top:   [nActs]int{aAfter: 1},
	burst: 4, seed: 8, rounds: 2, stops: 2, budget: 600,
	floor: func(c *cover, n int) bool { return c.merged >= 1000 && c.hands >= 1000 },
}, {
	// Runs of looks in the lane beside ordinary events, on a grid fine
	// enough that looks of runs of equal and unequal periods, their tails
	// and ordinary events share instants: runs that processes spin on and
	// callbacks start, ended by a flag a callback or a round flips, by
	// their limit or by their tail, and deadlines stepping through them.
	name: "lane", seeds: 400,
	units:   []time.Duration{1, 10},
	palette: []time.Duration{0, 1, 2, 3, 4, 5, 6, 8},
	spread:  48, gap: 60, procs: 3, ops: 16, cbs: 10, perCb: 3,
	prog: [nActs]int{aSpin: 6, aFlip: 1, aAwait: 1, aSleep: 1, aBase: 1},
	cb:   [nActs]int{aRun: 4, aFlip: 3, aResume: 2, aBase: 1, aAfter: 1, aCoal: 2, aStop: 1},
	top:  [nActs]int{aRun: 2, aFlip: 1, aAfter: 1},
	runs: 5, flags: 2,
	seed: 4, rounds: 6, burst: 3, stops: 3, budget: 300,
	floor: func(c *cover, n int) bool {
		return c.skipped >= 20*n && c.ends >= 5*n && c.shared >= 5*n && c.hands >= n
	},
}}

// cover is the ground a profile's scripts covered, on the real side:
// besides hand-backs, merges, bursts and wheel checks, the looks the lane
// skipped, the runs that ended and the trace lines that share an instant
// with the one before.
type cover struct {
	hands, merged, bursts, wheel, skipped, ends, shared int
}

// script draws a script of the profile from choose, which returns a
// choice in [0, n).
func (p *profile) script(choose func(n int) int) *script {
	unit := p.units[choose(len(p.units))]
	delay := func() time.Duration {
		if p.spread > 0 && choose(2) == 0 {
			return unit * time.Duration(choose(p.spread))
		}
		return unit * p.palette[choose(len(p.palette))]
	}
	nprog, ncb, dense := 1+choose(p.procs), 1+choose(p.cbs), p.dense && choose(2) == 0
	s := &script{progs: make([][]act, nprog), cbs: make([][]act, ncb), budget: p.budget, stopAfter: 1 << 30, flags: p.flags}
	if p.runs > 0 {
		for n := 1 + choose(p.runs); n > 0; n-- {
			every := 1 + choose(4)
			s.runs = append(s.runs, runDef{unit * time.Duration(every), unit * time.Duration(1+choose(every)),
				int64(1 + choose(24)), choose(p.flags), choose(ncb)})
		}
	}
	if p.stops > 0 && choose(p.stops) == 0 {
		s.stopAfter = choose(300)
	}
	// burst appends events filed with After or AfterCoalesced by the odds
	// w gives them (AfterCoalesced if it gives none): at level 0, one to
	// p.burst at one delay; at level 1 or 2, two to 64 on one to eight
	// instants of a bucket span of that level ahead, the earliest After
	// then cancelled two times in three.
	burst := func(list []act, w *[nActs]int, level int) []act {
		verb := func() actKind {
			if n := w[aAfter] + w[aCoal]; n == 0 || choose(n) >= w[aAfter] {
				return aCoal
			}
			return aAfter
		}
		if level == 0 {
			d := delay()
			for n := 1 + choose(p.burst); n > 0; n-- {
				list = append(list, act{verb(), d, choose(ncb)})
			}
			return list
		}
		at := make([]time.Duration, 1+choose(8))
		for i := range at {
			at[i] = time.Duration(choose(1 << (wheelBits * level)))
		}
		list = append(list, act{aBase, time.Duration(level), 0})
		afters, first, firstAt := 0, -1, time.Duration(0)
		for n := 2 + choose(63); n > 0; n-- {
			a := act{verb(), at[choose(len(at))], choose(ncb)}
			if a.kind == aAfter {
				if first < 0 || a.d < firstAt {
					first, firstAt = afters, a.d
				}
				afters++
			}
			list = append(list, a)
		}
		if first >= 0 && choose(3) > 0 {
			list = append(list, act{aCancel, 0, first - afters})
		}
		return list
	}
	// draw appends n acts drawn by the weights w.
	draw := func(list []act, w *[nActs]int, n int) []act {
		total := 0
		for _, x := range w {
			total += x
		}
		for ; n > 0 && total > 0; n-- {
			k, x := actKind(0), choose(total)
			for ; x >= w[k]; k++ {
				x -= w[k]
			}
			a := act{k, delay(), 0}
			switch k {
			case aBase:
				list = burst(list, w, 0)
				continue
			case aWake, aResume, aSpawn:
				a.arg = choose(nprog)
			case aAfter, aCoal:
				a.arg = choose(ncb)
			case aRun, aSpin:
				a.arg = choose(len(s.runs))
			case aFlip:
				a.arg = choose(p.flags)
			case aAwait:
				a.arg = choose(3)
			case aCancel:
				a.arg = choose(1 << 16)
			}
			list = append(list, a)
		}
		return list
	}
	for pid := range s.progs {
		s.progs[pid] = draw(nil, &p.prog, choose(p.ops+1))
	}
	for cb := range s.cbs {
		s.cbs[cb] = draw(nil, &p.cb, choose(p.perCb+1))
	}
	var first []act
	for pid, roots := 0, 1+choose(nprog); pid < roots; pid++ {
		first = append(first, act{aSpawn, 0, pid})
	}
	step := func() time.Duration { return delay() + unit*time.Duration(choose(p.gap+1)) }
	s.rounds = append(s.rounds, round{draw(first, &p.top, p.seed), step(), fromNow})
	for i := 1; i < p.rounds; i++ {
		if !dense || i%3 != 0 {
			s.rounds = append(s.rounds, round{draw(nil, &p.top, choose(3)), step(), fromNow})
			continue
		}
		// A burst, then deadlines at up to four points inside its span.
		level := 1 + choose(2)
		s.rounds = append(s.rounds, round{burst(nil, &p.top, level), 0, fromBase})
		points := make([]time.Duration, choose(5))
		for j := range points {
			points[j] = time.Duration(choose(1 << (wheelBits * level)))
		}
		slices.Sort(points)
		for _, dl := range points {
			s.rounds = append(s.rounds, round{nil, dl, fromBase})
		}
	}
	// One deadline behind the clock, then the rest.
	s.rounds = append(s.rounds, round{nil, -1 - time.Duration(choose(1000)), fromNow}, round{dl: forever})
	return s
}

// spec is the reference kernel: the contract the Kernel is held to,
// written to be read rather than to be fast. Events sit in a slice and
// the next one is found by scanning for the least (at, seq); a process is
// a program counter, stepped from its resume event until it blocks;
// there is no goroutine, wheel, run queue or chunk. Each rule is stated
// once, where it is marked.
type spec struct {
	r        *run
	clock    time.Duration
	seq      uint64
	events   []*specEvent
	coal     *specEvent // the event AfterCoalesced filed last
	coalSeq  uint64     // seq when it was filed
	stopped  bool
	handback int // the process a callback resumed, or -1
	procs    []*specProc
	order    []int // pids in spawn order, for Idle
	// Dispatched counts every callback run, a process's resume among them;
	// pops, every event popped, however many callbacks it carries.
	dispatched, pops uint64
}

type specEvent struct {
	at      time.Duration
	seq     uint64
	fns     []func() // one per call merged into it
	started bool
}

type specProc struct {
	pc          int
	state       procState
	wakePending bool
	listed      bool // its Await gave a reason
}

func (s *spec) now() time.Duration { return s.clock }

// file is how every event is filed. Rule: an event runs at now+d, or now
// if that is past, in (at, seq) order.
func (s *spec) file(d time.Duration, fn func()) *specEvent {
	s.seq++
	e := &specEvent{at: s.clock + max(d, 0), seq: s.seq, fns: []func(){fn}}
	s.events = append(s.events, e)
	return e
}

// resumes files the event that resumes process pid d from now.
func (s *spec) resumes(d time.Duration, pid int) { s.file(d, func() { s.step(pid) }) }

// Rule: Cancel takes the event out.
func (s *spec) after(d time.Duration, fn func()) func() {
	e := s.file(d, fn)
	return func() { s.events = slices.DeleteFunc(s.events, func(x *specEvent) bool { return x == e }) }
}

// Rule (adjacency): a call merges into the event AfterCoalesced filed
// last iff no seq was taken since, its deadline is the same and its
// callbacks have not started; the merged callback runs right after the
// event's others.
func (s *spec) afterCoalesced(d time.Duration, fn func()) {
	if c := s.coal; c != nil && s.coalSeq == s.seq && c.at == s.clock+max(d, 0) && !c.started {
		c.fns = append(c.fns, fn)
		return
	}
	s.coal = s.file(d, fn)
	s.coalSeq = s.seq
}

// Rule: a run of looks files each look as an event, d from now and then
// every period (the tail last after the last loss); a look that does not
// lose, or the tail, ends the run.
func (s *spec) repeat(d time.Duration, o *looker) {
	var look func()
	look = func() {
		if o.tail || !o.loses() {
			o.End()
			return
		}
		o.losses++
		if o.tail = o.losses == o.def.limit; o.tail {
			s.file(o.def.last, look)
		} else {
			s.file(o.def.every, look)
		}
	}
	s.file(d, look)
}

// Rule: Stop takes effect between callbacks, and for good.
func (s *spec) stop() { s.stopped = true }

// Rule: Ran(n) counts n more events run, by the callback that makes it.
func (s *spec) ran(n int) { s.dispatched += uint64(n) }

func (s *spec) spawn(pid int) {
	s.procs[pid] = &specProc{state: procNew}
	s.order = append(s.order, pid)
	s.resumes(0, pid)
}

// Rule: a Wake resumes a parked process now, and is remembered by one
// that is not parked, for its next Park.
func (s *spec) wake(pid int) {
	switch p := s.procs[pid]; p.state {
	case procDead:
	case procParked:
		p.state = procWaiting
		s.resumes(0, pid)
	default:
		p.wakePending = true
	}
}

func (s *spec) resume(pid int) { s.handback = pid }

// runUntil dispatches. Rule: RunUntil runs the events due by its deadline
// and moves the clock up to the deadline, never back, if one lies beyond;
// a drained queue leaves the clock at the last event.
func (s *spec) runUntil(deadline time.Duration) time.Duration {
	for !s.stopped && len(s.events) > 0 {
		i := 0
		for j, e := range s.events {
			if e.at < s.events[i].at || e.at == s.events[i].at && e.seq < s.events[i].seq {
				i = j
			}
		}
		e := s.events[i]
		if e.at > deadline {
			s.clock = max(s.clock, deadline)
			break
		}
		s.events = slices.Delete(s.events, i, i+1)
		s.clock = e.at
		s.pops++
		e.started = true
		for j, fn := range e.fns {
			if j > 0 && s.stopped {
				break
			}
			s.dispatched++
			fn()
			// Rule: a Resume ends the callback's event in the process, before
			// anything else, Stop included; the rest of a batch runs when the
			// process blocks, before anything else.
			if pid := s.handback; pid >= 0 {
				s.handback = -1
				s.step(pid)
			}
		}
	}
	return s.clock
}

// step runs process pid from where it blocked until it blocks again or
// ends. Rule: Sleep, Park and Await block the process; Sleep files its
// resume d from now, Park returns at once on a remembered wake, Await
// waits for a Resume.
func (s *spec) step(pid int) {
	p, prog := s.procs[pid], s.r.s.progs[pid]
	if p.state != procNew {
		s.r.note(0, pid, p.pc-1)
	}
	p.state = procRunning
	for p.pc < len(prog) {
		a := prog[p.pc]
		p.pc++
		if !s.r.prepare(pid, a) {
			s.r.note(0, pid, p.pc-1)
			continue
		}
		switch a.kind {
		case aSleep:
			p.state = procWaiting
			s.resumes(a.d, pid)
		case aPark:
			if p.wakePending {
				p.wakePending = false
				s.r.note(0, pid, p.pc-1)
				continue
			}
			p.state = procParked
		default:
			p.state, p.listed = procAwaiting, awaitReason(a) != nil
		}
		return
	}
	p.state = procDead
}

func (s *spec) state() outcome {
	var idle []string
	for _, pid := range s.order {
		if p := s.procs[pid]; p.state == procParked || p.state == procAwaiting && p.listed {
			idle = append(idle, fmt.Sprint("p", pid))
		}
	}
	return outcome{s.clock, s.dispatched, s.pops, fmt.Sprint(idle), s.stopped}
}
