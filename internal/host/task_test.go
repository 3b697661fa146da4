package host

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mether/internal/sim"
)

// taskOp is one line of the subject's script: Use(d, kind), or a sleep on
// the world's wait queue q-1 when kind is zero.
type taskOp struct {
	d    time.Duration
	kind CPUKind
	q    int
}

// taskWorld is everything one seed decides, drawn before anything runs so
// that both executions see the same world whatever order they run it in.
type taskWorld struct {
	pr     Params
	script []taskOp
	// reps is, per script line, how often TestUseWhileMatchesLoop repeats a
	// positive Use (1-7 times).
	reps []int
	// rivals are coroutine competitors: each op is a UseUser (d > 0), a
	// SleepFor (d < 0) or a wake of queue q-1.
	rivals [][]taskOp
	// wakers fire at their times and wake queue q; every second one goes
	// through Interrupt.
	wakers []struct {
		at time.Duration
		q  int
	}
	period time.Duration
}

// taskQueues is how many wait queues a world has.
const taskQueues = 3

// waits is how a world's processes sleep and are woken, queues numbered
// from zero: on WaitQs (queues), or on the slice-per-key reference of
// TestWaitQMatchesKeyedReference.
type waits interface {
	sleep(p *Proc, q int)     // from a coroutine
	want(p *Proc, q int) Want // from a task's step
	wakeup(q int)
}

type queues struct {
	h *Host
	q [taskQueues]WaitQ
}

func (w *queues) sleep(p *Proc, q int)     { p.SleepOnQ(&w.q[q]) }
func (w *queues) want(_ *Proc, q int) Want { return WaitOn(&w.q[q]) }
func (w *queues) wakeup(q int)             { w.h.WakeupQ(&w.q[q]) }

func drawTaskWorld(seed int64) taskWorld {
	r := rand.New(rand.NewSource(seed))
	// Everything is a multiple of one unit, and the quantum a small
	// multiple, so that Uses ending exactly on a quantum boundary — with a
	// rival runnable — are common rather than measure-zero.
	const unit = 100 * time.Microsecond
	w := taskWorld{pr: Params{
		Quantum:         time.Duration(4+r.Intn(8)) * unit,
		CtxSwitch:       time.Duration(r.Intn(3)) * unit,
		DispatchLatency: time.Duration(r.Intn(2)) * unit / 2,
		InterruptCost:   time.Duration(r.Intn(3)) * unit,
		WakeBoostDelay:  time.Duration(1+r.Intn(6)) * unit,
	}}
	if seed%4 == 0 {
		w.pr.WakeBoostDelay = 0
	}
	if seed%5 == 0 {
		w.pr.CtxSwitch, w.pr.DispatchLatency = 0, 0
	}
	q := int(w.pr.Quantum / unit)
	use := func() time.Duration {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return time.Duration(q*(3+r.Intn(6))+r.Intn(q)) * unit // ≫ quantum
		case 2:
			return w.pr.Quantum
		default:
			return time.Duration(1+r.Intn(q)) * unit
		}
	}
	for i, n := 0, 40+r.Intn(40); i < n; i++ {
		if r.Intn(3) == 0 {
			w.script = append(w.script, taskOp{q: 1 + r.Intn(taskQueues)})
		} else {
			w.script = append(w.script, taskOp{d: use(), kind: CPUKind(1 + r.Intn(2))})
		}
	}
	w.rivals = make([][]taskOp, r.Intn(3))
	for i := range w.rivals {
		for j, n := 0, 60+r.Intn(60); j < n; j++ {
			switch r.Intn(4) {
			case 0:
				w.rivals[i] = append(w.rivals[i], taskOp{d: -time.Duration(1+r.Intn(2*q)) * unit})
			case 1:
				w.rivals[i] = append(w.rivals[i], taskOp{q: 1 + r.Intn(taskQueues)})
			default:
				w.rivals[i] = append(w.rivals[i], taskOp{d: max(use(), unit)})
			}
		}
	}
	w.wakers = make([]struct {
		at time.Duration
		q  int
	}, 400)
	for i := range w.wakers {
		w.wakers[i].at = time.Duration(r.Intn(4000)) * unit / 4
		w.wakers[i].q = r.Intn(taskQueues)
	}
	w.period = time.Duration(5+r.Intn(20)) * unit
	// Drawn last: the worlds of TestTaskMatchesProcess are older than this.
	w.reps = make([]int, len(w.script))
	for i := range w.reps {
		w.reps[i] = 1 + r.Intn(7)
	}
	return w
}

// subject says what runs the script.
type subject uint8

const (
	asProcess  subject = iota // a coroutine: Use and SleepOnQ, line by line
	asTask                    // a task returning UseCPU and WaitOn
	asLoop                    // a coroutine repeating each positive Use reps times in a written loop
	asUseWhile                // the same repeats made by UseWhile
)

// run executes the world with the given subject and returns everything
// observable about the execution, and how many callbacks ran inline
// (sim.Kernel.Continue), which is not observable.
func (w taskWorld) run(as subject) (log []string, finished bool, continued uint64) {
	steps := 0
	var kern *sim.Kernel
	log = w.exec(false, func(k *sim.Kernel, h *Host, wt waits, logf func(string, ...any)) {
		kern = k
		stepped := func() {
			logf("%v step %d", k.Now(), steps)
			steps++
		}
		switch as {
		case asTask:
			h.SpawnTask("subject", func() Want {
				stepped()
				if steps > len(w.script) {
					return Want{}
				}
				if op := w.script[steps-1]; op.kind != 0 {
					return UseCPU(op.d, op.kind)
				} else {
					return wt.want(nil, op.q-1)
				}
			})
		case asProcess:
			h.Spawn("subject", func(p *Proc) {
				for _, op := range w.script {
					stepped()
					if op.kind != 0 {
						p.Use(op.d, op.kind)
					} else {
						wt.sleep(p, op.q-1)
					}
				}
				stepped()
			})
		default:
			h.Spawn("subject", func(p *Proc) {
				left := 0
				again := func() bool {
					logf("%v again, %d left", k.Now(), left)
					left--
					return left > 0
				}
				for i, op := range w.script {
					stepped()
					switch left = w.reps[i]; {
					case op.kind == 0:
						wt.sleep(p, op.q-1)
					case op.d <= 0:
						p.Use(op.d, op.kind)
					case as == asUseWhile:
						p.UseWhile(op.d, op.kind, again)
					default:
						for {
							p.Use(op.d, op.kind)
							if !again() {
								break
							}
						}
					}
				}
				stepped()
			})
		}
	})
	return append(log, fmt.Sprintf("steps %d", steps)), steps == len(w.script)+1, kern.Counters().Continued
}

// exec runs the world for two virtual seconds: the processes spawn
// starts, then the rivals, the wakers and the tick that wakes every
// queue, all sleeping and waking on the world's WaitQs or, if ref, on
// the keyed reference (waitq_test.go). The log is the scheduler's trace, what spawn's
// processes say through logf, the kernel's and the host's totals and
// every process's accounting.
func (w taskWorld) exec(ref bool, spawn func(k *sim.Kernel, h *Host, wt waits, logf func(string, ...any))) (log []string) {
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	Trace = logf
	defer func() { Trace = nil }()
	k := sim.New(1)
	defer k.Shutdown()
	h := New(k, 0, "h", w.pr)
	var wt waits = &queues{h: h}
	if ref {
		wt = &keyedRef{h: h}
	}
	spawn(k, h, wt, logf)
	for i, ops := range w.rivals {
		ops := ops // go.mod is go 1.21: one variable per loop
		h.Spawn(fmt.Sprintf("rival%d", i), func(p *Proc) {
			for _, op := range ops {
				switch {
				case op.q != 0:
					wt.wakeup(op.q - 1)
				case op.d < 0:
					p.SleepFor(-op.d)
				default:
					p.UseUser(op.d)
				}
			}
		})
	}
	for i, wk := range w.wakers {
		wk := wk
		fn := func() { wt.wakeup(wk.q) }
		if i%2 == 0 {
			k.After(wk.at-k.Now(), "waker", fn)
		} else {
			k.After(wk.at-k.Now(), "waker", func() { h.Interrupt(fn) })
		}
	}
	var tick func()
	tick = func() {
		for q := 0; q < taskQueues; q++ {
			wt.wakeup(q)
		}
		k.After(w.period, "tick", tick)
	}
	k.After(w.period, "tick", tick)
	k.RunUntil(2 * time.Second)
	logf("dispatched %d pending %d ctx %d busy %v", k.Dispatched(), k.PendingEvents(), h.ContextSwitches(), h.BusyTime())
	for _, p := range h.Procs() {
		logf("%s user %v sys %v", p.Name(), p.User(), p.Sys())
	}
	return log
}

// TestTaskMatchesProcess is the contract of SpawnTask: a task is
// indistinguishable from a coroutine process running the same script —
// same scheduler trace, same step instants, same kernel events
// dispatched and left pending, same accounting — over seeded worlds
// with coroutine rivals, random wakers (half through Interrupt, so the
// coalescing that depends on an untouched event sequence is in play), a
// zero wake boost in a quarter of them and free dispatches in a fifth.
//
// Both kinds run on one state machine (Proc.advance), so what this pins
// is its two ends: the task's step called from the resume event against
// the coroutine handed the baton back in that same event
// (sim.Proc.Resume).
//
// Three mutations it must catch, and does (each was applied and seen to
// fail, at seed 0, 1 and 0): the hand-back made through a fresh After(0)
// event instead of Resume (Dispatched() differs); the process taken to be
// back on the CPU, without the `h.cur != p` wait, when the slice that
// ended on a quantum expiry was all that was owed; and a zero-cost Use
// read as exit (`w.d > 0` for `w.kind != 0`).
func TestTaskMatchesProcess(t *testing.T) {
	matchSubjects(t, asProcess, asTask)
}

// TestUseWhileMatchesLoop is the contract of UseWhile: it is the written
// loop `for { p.Use(d, kind); if !again() { break } }`, instant for
// instant and event for event — same scheduler trace, again called at
// the same instants with the same state, same kernel events dispatched
// and left pending, same accounting — over the same seeded worlds, every
// positive Use of the script repeated 1-7 times.
//
// Two mutations it must catch, and does (each was applied and seen to
// fail, at seed 0 and seed 1): the hand-back made through a fresh
// After(0) event instead of sim.Proc.Resume (Dispatched() differs), and
// again called before the CPU is re-acquired when a poll's slice ended
// exactly on a quantum expiry (`if p.need <= 0 && p.again != nil { return
// true }` ahead of advance's loop: again runs 50 µs before the rival's
// dispatch instead of after the subject's own).
func TestUseWhileMatchesLoop(t *testing.T) {
	matchSubjects(t, asLoop, asUseWhile)
}

// matchSubjects runs every seeded world under both subjects and wants
// the two executions indistinguishable.
func matchSubjects(t *testing.T, ref, sub subject) {
	seeds := 480
	if testing.Short() {
		seeds = 400
	}
	finished, rivalled := 0, 0
	var lone, shared uint64 // continued callbacks, without and with rivals
	for seed := int64(0); seed < int64(seeds); seed++ {
		w := drawTaskWorld(seed)
		proc, done, _ := w.run(ref)
		task, _, continued := w.run(sub)
		if !slices.Equal(proc, task) {
			i := 0
			for i < len(proc) && i < len(task) && proc[i] == task[i] {
				i++
			}
			t.Fatalf("seed %d: subject %d diverges from subject %d at line %d of %d/%d:\nreference: %s\nsubject:   %s",
				seed, sub, ref, i, len(proc), len(task), line(proc, i), line(task, i))
		}
		if done {
			finished++
		}
		if len(w.rivals) > 0 {
			rivalled++
			shared += continued
		} else {
			lone += continued
		}
	}
	// The comparison is only as good as the ground it covers, slice ends
	// run inline by the subject alone and beside rivals included.
	if finished < seeds*9/10 || rivalled < seeds/2 || lone == 0 || shared == 0 {
		t.Errorf("of %d worlds the script ran to its end in %d and %d had rivals; %d callbacks continued alone, %d with rivals",
			seeds, finished, rivalled, lone, shared)
	}
	t.Logf("continued callbacks: %d in worlds without rivals, %d with", lone, shared)
}

func line(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end of log>"
}

// A Want is decoded by its zero fields, so the two that would read as
// exit must fail where they are built, not end the process silently.
func TestWantRejectsZeroKindAndNilKey(t *testing.T) {
	for name, build := range map[string]func(){
		"UseCPU(d, 0)": func() { UseCPU(time.Millisecond, 0) },
		"WaitOn(nil)":  func() { WaitOn(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}
