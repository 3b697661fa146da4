package host

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mether/internal/sim"
)

// len counts the queue's sleepers; a nil queue (a key never slept on) has
// none.
func (q *WaitQ) len() (n int) {
	if q == nil {
		return 0
	}
	for p := q.head; p != nil; p = p.waitNext {
		n++
	}
	return n
}

// keyedRef is sleep and wake as they were before WaitQ, kept as the
// reference: one slice of sleepers per key, woken in slice order by the
// sequence WakeupQ must reproduce — enqueue and wake each, one
// maybeDispatch, then a boost per sleeper.
type keyedRef struct {
	h        *Host
	sleepers [taskQueues][]*Proc
}

func (r *keyedRef) block(p *Proc, q int) {
	p.state = stateBlocked
	r.sleepers[q] = append(r.sleepers[q], p)
	p.releaseCPU()
}

func (r *keyedRef) sleep(p *Proc, q int) {
	r.block(p, q)
	p.await(r, nil)
}

// want blocks the task here, in its step, and asks for no CPU: the
// scheduler then finds the process off the CPU with nothing owed, which
// is where Proc.block leaves it.
func (r *keyedRef) want(p *Proc, q int) Want {
	r.block(p, q)
	return UseCPU(0, CPUSys)
}

func (r *keyedRef) wakeup(q int) {
	h, ps := r.h, r.sleepers[q]
	if len(ps) == 0 {
		return
	}
	r.sleepers[q] = nil
	for _, p := range ps {
		if p.state != stateBlocked {
			continue
		}
		p.state = stateRunnable
		h.enqueue(p)
		p.wake()
	}
	h.maybeDispatch()
	for _, p := range ps {
		h.armWakeBoost(p)
	}
}

// runSleepers executes the world with four subjects at once — two
// coroutines and two tasks, each running the script from its own
// starting line — so that queues hold several sleepers of both kinds. It
// counts the sleeps and, on WaitQs, how many joined a queue already held.
func (w taskWorld) runSleepers(ref bool) (log []string, sleeps, shared int) {
	log = w.exec(ref, func(k *sim.Kernel, h *Host, wt waits, logf func(string, ...any)) {
		for i := 0; i < 4; i++ {
			name, line := fmt.Sprintf("s%d", i), i*len(w.script)/4
			next := func() (op taskOp, ok bool) {
				logf("%v %s line %d", k.Now(), name, line)
				if line == len(w.script) {
					return op, false
				}
				line++
				op = w.script[line-1]
				if op.kind == 0 {
					sleeps++
					if qs, ok := wt.(*queues); ok && qs.q[op.q-1].head != nil {
						shared++
					}
				}
				return op, true
			}
			if i%2 == 0 {
				h.Spawn(name, func(p *Proc) {
					for op, ok := next(); ok; op, ok = next() {
						if op.kind != 0 {
							p.Use(op.d, op.kind)
						} else {
							wt.sleep(p, op.q-1)
						}
					}
				})
				continue
			}
			var p *Proc
			p = h.SpawnTask(name, func() Want {
				switch op, ok := next(); {
				case !ok:
					return Want{}
				case op.kind != 0:
					return UseCPU(op.d, op.kind)
				default:
					return wt.want(p, op.q-1)
				}
			})
		}
	})
	return log, sleeps, shared
}

// TestWaitQMatchesKeyedReference is the contract of WaitQ: sleeping on a
// queue and WakeupQ are, instant for instant and event for event, the
// slice-per-key sleep and Wakeup they replaced (keyedRef) — same
// scheduler trace, same step instants, same kernel events dispatched and
// left pending, same context switches, busy time and per-process
// accounting — over the seeded worlds of drawTaskWorld (rivals that
// compute, sleep on timers and wake queues, random wakers, half through
// Interrupt, a zero wake boost in a quarter, free dispatches in a
// fifth), with four sleepers, coroutines and tasks, sharing three queues.
//
// Three mutations it must catch, and does (each was applied to wakeAll
// and seen to fail): sleepers woken in LIFO order (seed 0: the wrong
// sleeper is dispatched first); armWakeBoost moved into the first loop,
// ahead of maybeDispatch (seed 86 and four more: the boost event then
// precedes the dispatch event it shares an instant with, finds the CPU
// still idle and preempts nobody); and a sleeper's link left set after
// its wake, so that it drags its old successors into the next queue it
// sleeps on (seed 0: block refuses such a sleeper; without that check
// the list closes into a cycle and the WakeupQ never returns).
func TestWaitQMatchesKeyedReference(t *testing.T) {
	seeds := 480
	if testing.Short() {
		seeds = 400
	}
	sleeps, shared := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		w := drawTaskWorld(seed)
		ref, _, _ := w.runSleepers(true)
		got, n, m := w.runSleepers(false)
		if !slices.Equal(ref, got) {
			i := 0
			for i < len(ref) && i < len(got) && ref[i] == got[i] {
				i++
			}
			t.Fatalf("seed %d: WaitQ diverges from the keyed reference at line %d of %d/%d:\nreference: %s\nWaitQ:     %s",
				seed, i, len(ref), len(got), line(ref, i), line(got, i))
		}
		sleeps, shared = sleeps+n, shared+m
	}
	// The comparison is only as good as the ground it covers: order and
	// links matter only on a queue with more than one sleeper.
	if shared < 2*seeds {
		t.Errorf("of %d sleeps only %d joined a sleeper already on the queue", sleeps, shared)
	}
}

// TestSleeperOnOneQueue: sleepers on three queues are woken by a seeded
// schedule of WakeupQs (hits, misses and repeats) and go back to sleep on
// another queue. After every kernel event each queue is well formed (tail
// is its last sleeper), every sleeper on a queue is blocked and on that
// queue alone, and a queue just woken is empty.
func TestSleeperOnOneQueue(t *testing.T) {
	k := sim.New(1)
	h := New(k, 0, "a", testParams())
	var qs [4]WaitQ // nobody sleeps on the last
	const procs, rounds = 6, 40
	wakes := 0
	for i := 0; i < procs; i++ {
		i := i
		h.Spawn("s", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.SleepOnQ(&qs[(i+r)%3])
				wakes++
				p.UseUser(time.Duration(i) * 100 * time.Microsecond)
			}
		})
	}
	check := func() {
		on := map[*Proc]int{}
		for i := range qs {
			var last *Proc
			for p := qs[i].head; p != nil; p = p.waitNext {
				if on[p]++; on[p] > 1 || p.state != stateBlocked {
					t.Fatalf("%v: a process in state %d is on %d queues", k.Now(), p.state, on[p])
				}
				last = p
			}
			if qs[i].tail != last {
				t.Fatalf("%v: queue %d's tail is not its last sleeper", k.Now(), i)
			}
		}
	}
	rng := k.Rand()
	var tick func()
	tick = func() {
		check()
		q := &qs[rng.Intn(len(qs))]
		h.WakeupQ(q)
		if *q != (WaitQ{}) {
			t.Fatalf("%v: a woken queue still holds %d", k.Now(), q.len())
		}
		check()
		if wakes < procs*rounds {
			k.After(time.Duration(1+rng.Intn(3))*time.Millisecond, "tick", tick)
		}
	}
	k.After(0, "tick", tick)
	k.Run()
	if wakes != procs*rounds {
		t.Fatalf("%d wakes, want %d", wakes, procs*rounds)
	}
	check()
	for _, p := range h.Procs() {
		if p.waitNext != nil {
			t.Errorf("a finished process still carries a queue link")
		}
	}
	k.Shutdown()
}
