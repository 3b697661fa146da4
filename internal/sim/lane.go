package sim

import "time"

// The repeat lane: a run of looks — a process spinning on memory, a look
// every period — is one entry, not one event per look. Its owner files it
// with Kernel.Repeat, which takes a seq as filing an event would; dispatch
// compares every ordinary event with k.limit, the deadline or the instant
// before the lane's head, so an empty lane costs no compare of its own.
// When the head comes first, a window — every look before the next
// ordinary event, or up to the deadline — runs in one step: each run's
// owner says once how many of its looks lose (Repeater.Ahead) and charges
// those the window covers in bulk (Skip), and the earliest look that ends
// a run runs as an ordinary callback (End). A losing look changes nothing
// but its owner's charges, so every look of a window reads the state the
// first did.
//
// Exactness argument (why the lane runs what filing every look as an
// event would, in the same (time, seq) order):
//
//  1. A look filed inside a window was filed after every pending ordinary
//     event and before any filed later: at the instant of an ordinary
//     event filed before the window it runs after that event. So a window
//     ends at the first ordinary event, and at that event's instant only
//     a run's pending look, filed before the window, may come first.
//  2. Looks advanced in a window take fresh seqs in the order they were
//     virtually filed: of two looks at one instant, the one whose filing
//     look came first (first) — the earlier one, or at one instant too,
//     back to a look filed before the window, whose seq decides.
//  3. A skipped look moves seq, as its filing would, so AfterCoalesced
//     never merges across it; Dispatched counts it (Counters.Skipped) and
//     the look that ends a run counts as a pop.
//
// A hook that sees each callback (ROADMAP item 6) sees a window's skipped
// looks as one count per run per window.

// Repeat is one run in the lane: its pending look's instant and seq, and
// its period. Its owner keeps it; the kernel takes it out of the lane
// before its End runs.
type Repeat struct {
	at, every time.Duration
	seq       uint64
	r         Repeater
}

// winRun is a Repeat in a window: its losses ahead, the slice after them
// that ends it, and the instant it ends; the looks skipped and the slice
// that filed the pending look after them.
type winRun struct {
	*Repeat
	n, skip          int64
	last, end, slice time.Duration
}

// Repeater is what a run's owner answers, between ordinary events.
type Repeater interface {
	// Ahead says how many of the run's looks, from the pending one on,
	// lose — the run goes on after them — and, if any do, the slice after
	// the last of them (0 < last <= every) of the event that ends the run.
	// It must be a pure function of state only ordinary events change.
	Ahead() (n int64, last time.Duration)
	// Skip charges the first n of them, which ran in the lane.
	Skip(n int64)
	// End is the callback of the event that ends the run.
	End()
}

// never is a run's end when its losses outlast the clock.
const never = time.Duration(1<<63 - 1)

// Repeat files run r: its first look d from now (negative d counts as
// zero), then one every period while owner says it loses. r must not be
// in the lane already.
func (k *Kernel) Repeat(r *Repeat, d, every time.Duration, owner Repeater) {
	if every <= 0 {
		panic("sim: Repeat needs a positive period")
	}
	k.seq++
	r.at, r.seq, r.every, r.r = k.now+max(d, 0), k.seq, every, owner
	k.moved = append(k.moved[:0], r)
	k.laneMerge(k.moved)
	k.relimit()
}

// The lane is sorted by (at, seq) from its last entry to its first: its
// head is its last.

func (a *Repeat) less(b *Repeat) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// laneMerge merges runs, sorted from first to last, into the lane.
func (k *Kernel) laneMerge(runs []*Repeat) {
	a, b := len(k.lane), len(runs)
	for k.lane = append(k.lane, runs...); b > 0; {
		if r := runs[len(runs)-b]; a > 0 && k.lane[a-1].less(r) {
			k.lane[a+b-1], a = k.lane[a-1], a-1
		} else {
			k.lane[a+b-1], b = r, b-1
		}
	}
}

func (k *Kernel) head() *Repeat { return k.lane[len(k.lane)-1] }

// relimit sets what dispatch compares every ordinary event with: the
// deadline, or the instant before the lane's head if that is earlier.
func (k *Kernel) relimit() {
	k.limit = k.deadline
	if len(k.lane) > 0 && k.head().at <= k.limit {
		k.limit = k.head().at - 1
	}
}

// beyond decides for the next ordinary event (at, seq), past k.limit:
// pop it, or run the lane's window that comes first (p is whom its ending
// look handed the baton to, if anyone), or end the run at the deadline (p
// is the root).
func (k *Kernel) beyond(at time.Duration, seq uint64) (p *Proc, pop bool) {
	if len(k.lane) > 0 {
		if h := k.head(); h.at <= k.deadline && (h.at < at || h.at == at && h.seq < seq) {
			return k.window(at, seq), false
		}
	}
	if at > k.deadline {
		return k.expire(), false
	}
	return nil, true
}

// window runs the lane up to the ordinary event (bAt, bSeq), or up to and
// including the deadline if that is earlier: it skips every losing look
// before that point and runs the earliest look that ends a run, if one
// comes first, as an ordinary callback, returning whom it handed the baton
// to.
func (k *Kernel) window(bAt time.Duration, bSeq uint64) *Proc {
	if bAt > k.deadline {
		bAt, bSeq = k.deadline+1, 0
	}
	// The bound is a look filed before the window, the cut the earliest
	// end before it; the runs whose pending look comes first take part,
	// from first to last.
	b := Repeat{at: bAt, seq: bSeq}
	bound := winRun{Repeat: &b, end: bAt}
	win := k.win[:0]
	for len(k.lane) > 0 && k.head().less(&b) {
		win = append(win, winRun{Repeat: k.head()})
		k.lane[len(k.lane)-1] = nil
		k.lane = k.lane[:len(k.lane)-1]
	}
	k.win = win
	cut := &bound
	for i := range win {
		r := &win[i]
		r.n, r.last = r.r.Ahead()
		switch {
		case r.n == 0:
			r.end = r.at
		case r.n-1 >= int64((never-r.at-r.last)/r.every):
			r.end = never
			continue
		default:
			r.end = r.at + time.Duration(r.n-1)*r.every + r.last
		}
		if r.end < cut.end || r.end == cut.end && first(r, r.n, r.last, cut, cut.n, cut.last) {
			cut = r
		}
	}
	// Each run's losses before the cut skipped; the cut's end, if the
	// window filed it, takes a seq.
	for i := range win {
		r := &win[i]
		if r.skip = r.n; r != cut {
			r.skip = r.before(cut)
		}
		if r.skip == 0 {
			continue
		}
		r.r.Skip(r.skip)
		k.ctr.Skipped += uint64(r.skip)
		if r.slice = r.every; r.skip < r.n {
			r.at += time.Duration(r.skip) * r.every
		} else {
			r.at, r.slice = r.end, r.last
		}
	}
	if cut.skip > 0 {
		k.seq++
	}
	end, ender := cut.end, cut.Repeat // reseq sorts win under cut
	k.reseq(win, ender)
	k.relimit()
	if ender == &b {
		return nil
	}
	// The cut runs as a popped event would: the wheel's events of its
	// instant, due after it, are staged ahead of what it files there.
	if k.dueHead == len(k.due) {
		k.due, k.dueHead = k.due[:0], 0
		k.advance(int64(end))
	}
	k.now = end
	k.ctr.Pops++
	ender.r.End()
	p := k.handback
	k.handback = nil
	return p
}

// before counts r's losses before the end of run c: those at earlier
// instants, and the one at its instant if there is one and comes first.
func (r *winRun) before(c *winRun) int64 {
	if c.end < r.at {
		return 0
	}
	q, rem := int64((c.end-r.at)/r.every), (c.end-r.at)%r.every
	switch {
	case rem != 0:
		return min(r.n, q+1)
	case q < r.n && first(r, q, r.every, c, c.n, c.last):
		return q + 1
	}
	return min(r.n, q)
}

// reseq puts the window's runs but the cut back in the lane, in the order
// their pending looks come: the advanced ones were virtually filed in that
// order and take fresh seqs in it.
func (k *Kernel) reseq(win []winRun, cut *Repeat) {
	for i := 1; i < len(win); i++ {
		r, j := win[i], i
		for ; j > 0 && (r.at < win[j-1].at || r.at == win[j-1].at && first(&r, r.skip, r.slice, &win[j-1], win[j-1].skip, win[j-1].slice)); j-- {
			win[j] = win[j-1]
		}
		win[j] = r
	}
	runs := k.moved[:0]
	for i := range win {
		if r := &win[i]; r.Repeat != cut {
			if r.skip > 0 {
				k.seq++
				r.seq = k.seq
			}
			runs = append(runs, r.Repeat)
		}
	}
	k.laneMerge(runs)
	k.moved = runs
}

// first says which of two lane events at one instant comes first: event
// j of run c — its pending look if j is 0, else filed sc before by look
// j-1 — or event l of run d. A pending look was filed before the window;
// of two filed in it, the one filed earlier; of two filed at one instant,
// the one whose filing look came first, which for two periodic runs is
// the one whose look there was its pending one, the longer period, or the
// run that started later.
func first(c *winRun, j int64, sc time.Duration, d *winRun, l int64, sd time.Duration) bool {
	if j > 0 && l > 0 {
		if sc != sd {
			return sc > sd
		}
		if j, l = j-1, l-1; j > 0 && l > 0 {
			if c.every != d.every {
				return c.every > d.every
			}
			if j != l {
				return j < l
			}
		}
	}
	if (j == 0 || l == 0) && j != l {
		return j == 0
	}
	return c.seq < d.seq
}
