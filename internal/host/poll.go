package host

import "time"

// poll is a Proc seen by the kernel's lane as the run of its UseWhile's
// looks (sim.Repeater). Its pending event is the end of the slice now
// elapsing; between two kernel events the predicate, the run queue and
// the quantum's use stand still, so the losses ahead and the charges of
// the looks the kernel skips follow from them in closed form — exactly
// what resume would have done look by look.
type poll Proc

// Ahead is how many of the poll's looks, from the one the elapsing slice
// ends on, lose and go on; the event after the last of them ends the poll
// — the look that wins or reaches the limit, a quantum's end that splits
// a look, or one that rotates the CPU to a runnable peer — and comes last
// after it.
func (q *poll) Ahead() (int64, time.Duration) {
	p := (*Proc)(q)
	h := p.h
	if p.slice < p.need {
		return 0, 0 // a look split by a quantum's end
	}
	used := p.quantumUsed + p.slice
	if used >= h.pr.Quantum {
		if h.runnable() > 0 {
			return 0, 0 // the CPU rotates before the look
		}
		used = 0
	}
	if !p.again() {
		return 0, 0
	}
	n := int64(p.left) - 1 // losses short of the limit
	if n <= 0 {
		return 0, 0
	}
	// After this look, whole looks fit up to the quantum's end: one that
	// ends short of a look splits it; one that ends on a look rotates the
	// CPU if a peer waits, and alone starts a fresh quantum, which a look
	// splits unless looks divide it.
	quantum, e := h.pr.Quantum, p.every
	f, rem := int64((quantum-used)/e), (quantum-used)%e
	switch {
	case rem > 0:
		if n > f {
			return f + 1, rem
		}
	case h.runnable() > 0:
		return min(n, f), e
	case quantum%e != 0:
		if m := f + int64(quantum/e) + 1; m <= n {
			return m, quantum % e
		}
	}
	return n, e
}

// Skip charges n looks the kernel ran in the lane, all losses: the slice
// now elapsing, then n-1 whole looks, with the quantum started afresh each
// time the process, alone, used it up on a look; the look after them is
// pending, its slice a whole look or the quantum's rest.
func (q *poll) Skip(n int64) {
	p := (*Proc)(q)
	quantum, cpu := p.h.pr.Quantum, p.slice+time.Duration(n-1)*p.every
	p.charge(cpu)
	if p.quantumUsed += cpu; p.quantumUsed >= quantum {
		p.quantumUsed = (p.quantumUsed - quantum) % quantum
	}
	*p.lost += uint64(n)
	p.left -= int(n)
	p.need = p.every
	p.slice = min(p.every, quantum-p.quantumUsed)
}

// End is the callback of the event that ends the poll, made as resume
// makes every other slice end.
func (q *poll) End() { (*Proc)(q).resume() }
