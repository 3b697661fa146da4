package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mether/internal/choice"
)

// Fixed scripts: one table, each row held to the spec and to the trace it
// must leave (mark.String lines joined by ", "), and to the kernel events
// it pops if pops is set. A row is played by the test named in it, which
// keeps the name of the test the row once was.

const (
	ms      = time.Millisecond
	forever = time.Duration(1<<63 - 1)
)

type fixed struct {
	test string
	s    *script
	want string
	pops uint64
}

func sc(progs, cbs [][]act, rounds ...round) *script {
	return &script{progs: progs, cbs: cbs, rounds: rounds}
}

func until(dl time.Duration, acts ...act) round { return round{acts: acts, dl: dl} }

func repeat(n int, acts ...act) (out []act) {
	for ; n > 0; n-- {
		out = append(out, acts...)
	}
	return out
}

var fixedScripts = []fixed{
	{"TestEventsRunInTimeOrder", sc(nil, nil, until(forever, act{aAfter, 30 * ms, 0}, act{aAfter, 10 * ms, 0}, act{aAfter, 20 * ms, 0})),
		"10ms e2, 20ms e3, 30ms e1", 3},
	{"TestSameTimeEventsRunInInsertionOrder", sc(nil, nil, until(forever, repeat(3, act{aAfter, 5 * ms, 0}, act{aCoal, 5 * ms, 0})...)),
		"5ms e1, 5ms e2, 5ms e3, 5ms e4, 5ms e5, 5ms e6", 6},
	{"TestAfterSchedulesRelative", sc(nil, [][]act{{{aAfter, 250 * ms, 1}}}, until(forever, act{aAfter, time.Second, 0})),
		"1s e1, 1.25s e2", 0},
	{"TestCancelPreventsRun", sc(nil, nil, until(forever, act{aAfter, ms, 0}, act{aAfter, 2 * ms, 0}, act{aCancel, 0, 0})),
		"2ms e2", 1},
	// Past times, whichever verb, clamp to now, after what is queued.
	{"TestPastEventClampsToNow", sc(nil, [][]act{{{aAfter, -time.Second, 1}, {aCoal, -1, 1}}}, until(forever, act{aAfter, time.Second, 0})),
		"1s e1, 1s e2, 1s e3", 0},
	{"TestRunUntilStopsAtDeadline", sc(nil, nil, until(time.Second, act{aAfter, 2 * time.Second, 0}), until(forever)),
		"2s e1", 0},
	{"TestStopHaltsRun", sc(nil, [][]act{nil, {{aStop, 0, 0}}}, until(forever, act{aAfter, ms, 0}, act{aAfter, 2 * ms, 0}, act{aAfter, 3 * ms, 1}, act{aAfter, 4 * ms, 0})),
		"1ms e1, 2ms e2, 3ms e3", 0},
	{"TestProcSleepAdvancesClock", sc([][]act{{{aSleep, 10 * ms, 0}, {aSleep, 10 * ms, 0}, {aSleep, 10 * ms, 0}}}, nil, until(forever, act{aSpawn, 0, 0})),
		"10ms p0.0, 20ms p0.1, 30ms p0.2", 0},
	{"TestSleepNegativeIsZero", sc([][]act{{{aSleep, -5 * ms, 0}, {aSleep, ms, 0}}}, nil, until(forever, act{aSpawn, 0, 0}, act{aAfter, 0, 0})),
		"0s e1, 0s p0.0, 1ms p0.1", 0},
	{"TestParkAndWake", sc([][]act{{{aPark, 0, 0}}}, [][]act{{{aWake, 0, 0}}}, until(forever, act{aSpawn, 0, 0}, act{aAfter, 50 * ms, 0})),
		"50ms e1, 50ms p0.0", 0},
	{"TestWakeBeforeParkIsRemembered", sc([][]act{{{aSleep, 20 * ms, 0}, {aPark, 0, 0}}}, [][]act{{{aWake, 0, 0}}}, until(forever, act{aSpawn, 0, 0}, act{aAfter, 5 * ms, 0})),
		"5ms e1, 20ms p0.0, 20ms p0.1", 0},
	{"TestSpuriousWakeToleratedByConditionLoop", sc([][]act{{{aPark, 0, 0}, {aPark, 0, 0}}}, [][]act{{{aWake, 0, 0}}}, until(forever, act{aSpawn, 0, 0}, act{aAfter, 10 * ms, 0}, act{aAfter, 20 * ms, 0})),
		"10ms e1, 10ms p0.0, 20ms e2, 20ms p0.1", 0},
	// Idle lists a parked process and one in an Await no alarm bounds.
	{"TestIdleReportsParkedProcs", sc([][]act{{{aPark, 0, 0}}, {{aAwait, 0, 0}}, {{aAwait, time.Second, 2}}, {{aSleep, time.Second, 0}}}, nil,
		until(ms, act{aSpawn, 0, 0}, act{aSpawn, 0, 1}, act{aSpawn, 0, 2}, act{aSpawn, 0, 3}), until(forever)),
		"1s e1, 1s p2.0, 1s p3.0", 0},
	{"TestTwoProcsInterleaveDeterministically", sc([][]act{repeat(3, act{aSleep, 10 * ms, 0}), repeat(3, act{aSleep, 15 * ms, 0})}, nil,
		until(forever, act{aSpawn, 0, 0}, act{aSpawn, 0, 1})),
		"10ms p0.0, 15ms p1.0, 20ms p0.1, 30ms p1.1, 30ms p0.2, 45ms p1.2", 0},
	{"TestNestedSpawn", sc([][]act{{{aSpawn, 0, 1}, {aSleep, ms, 0}}, {{aSleep, 0, 0}}}, nil, until(forever, act{aSpawn, 0, 0})),
		"0s p0.0, 0s p1.0, 1ms p0.1", 0},
	// A deadline expires while a process holds the baton, and the run goes
	// on from there as if it had not.
	{"TestSplitDeadlineWhileProcHoldsBaton", sc([][]act{repeat(3, act{aSleep, 10 * ms, 0}, act{aWake, 0, 1}), repeat(3, act{aPark, 0, 0})}, nil,
		until(23*ms, act{aSpawn, 0, 0}, act{aSpawn, 0, 1}, act{aAfter, 6 * ms, 0}, act{aAfter, 11 * ms, 0}, act{aAfter, 16 * ms, 0}, act{aAfter, 21 * ms, 0}, act{aAfter, 26 * ms, 0}),
		until(70*ms)),
		"6ms e1, 10ms p0.0, 10ms p0.1, 10ms p1.0, 11ms e2, 16ms e3, 20ms p0.2, 20ms p0.3, 20ms p1.1, 21ms e4, 26ms e5, 30ms p0.4, 30ms p0.5, 30ms p1.2", 0},
	// A deadline behind the clock moves nothing, an event due now included.
	{"TestRunUntilNeverMovesClockBack", sc(nil, nil, until(20*ms, act{aAfter, 30 * ms, 0}), until(5*ms), until(10*ms, act{aAfter, 0, 0}), until(25*ms), until(forever)),
		"20ms e2, 30ms e1", 0},
	cascade(),
	{"TestCascadeFromNonZeroNow", sc(nil, [][]act{{{aAfter, 1<<24 + 3, 1}, {aAfter, 1 << 16, 1}, {aAfter, 256, 1}, {aAfter, 249, 1}, {aAfter, 248, 1}, {aAfter, 1, 1}}},
		until(forever, act{aAfter, 3<<16 | 5<<8 | 7, 0})),
		"197.895µs e1, 197.896µs e7, 198.143µs e6, 198.144µs e5, 198.151µs e4, 263.431µs e3, 16.975114ms e2", 0},
	// The victim has moved down a level when it is cancelled.
	{"TestCancelAfterCascade", sc(nil, nil, until(1<<16+20, act{aAfter, 1<<16 + 50, 0}, act{aAfter, 1<<16 + 10, 0}), until(forever, act{aCancel, 0, 0})),
		"65.546µs e2", 0},
	{"TestRunUntilDeadlineInsideBucketSpan", sc(nil, nil, until(time.Second, act{aAfter, 2 * time.Second, 0}), until(forever, act{aAfter, 500 * ms, 0})),
		"1.5s e2, 2s e1", 0},
	// The deadline lands inside the span of the bucket holding the only
	// event, before it; then one event comes earlier and one later.
	{"TestRunUntilDeadlineInsideFirstBucket", sc(nil, nil, until(0x77100000, act{aAfter, 0x77359400, 0}),
		until(forever, act{aAfter, 0x77200000 - 0x77100000, 0}, act{aAfter, 0x77400000 - 0x77100000, 0})),
		"1.998585856s e2, 2s e1, 2.000683008s e3", 0},
	{"TestRunUntilRepeatedDeadlinesAcrossSpans", sc(nil, nil,
		until(64, act{aAfter, 100, 0}, act{aAfter, 255, 0}, act{aAfter, 256, 0}, act{aAfter, 300, 0}, act{aAfter, 1 << 16, 0}, act{aAfter, 1<<16 + 1, 0}, act{aAfter, 1 << 20, 0}, act{aAfter, 1<<24 + 5, 0}),
		until(128), until(256), until(512), until(1<<16), until(1<<17), until(1<<20), until(1<<21), until(1<<24), until(1<<25)),
		"100ns e1, 255ns e2, 256ns e3, 300ns e4, 65.536µs e5, 65.537µs e6, 1.048576ms e7, 16.777221ms e8", 0},
	{"TestWheelThenSameInstantOrder", sc(nil, [][]act{{{aAfter, 0, 1}}}, until(forever, act{aAfter, 5 * ms, 0}, act{aAfter, 5 * ms, 1})),
		"5ms e1, 5ms e2, 5ms e3", 0},
	reserved(),
	// A Resume belongs to its callback's event: the Stop after it waits for
	// the process to block.
	{"TestStopDoesNotCancelHandBack", sc([][]act{{{aAfter, ms, 0}, {aAfter, ms, 1}, {aAwait, 0, 0}, {aSleep, ms, 0}}}, [][]act{{{aResume, 0, 0}, {aStop, 0, 0}}},
		until(forever, act{aSpawn, 0, 0})),
		"0s p0.0, 0s p0.1, 1ms e1, 1ms p0.2", 0},
	// The second of three merged callbacks Resumes a process: it runs after
	// the second, the third as soon as it blocks, what it files after
	// that; with and without another process holding the baton.
	{"TestResumeFromCoalescedCallback", sc([][]act{{{aAwait, 0, 0}, {aAfter, 0, 9}, {aCoal, 0, 9}}}, [][]act{nil, {{aResume, 0, 0}}},
		until(forever, act{aSpawn, 0, 0}, act{aCoal, ms, 0}, act{aCoal, ms, 1}, act{aCoal, ms, 0})),
		"1ms e1, 1ms e2, 1ms p0.0, 1ms p0.1, 1ms p0.2, 1ms e3, 1ms e4, 1ms e5", 4},
	{"TestResumeFromCoalescedCallback", sc([][]act{{{aAwait, 0, 0}, {aAfter, 0, 9}, {aCoal, 0, 9}}, {{aAwait, 0, 0}}}, [][]act{nil, {{aResume, 0, 0}}},
		until(forever, act{aSpawn, 0, 0}, act{aSpawn, 0, 1}, act{aCoal, ms, 0}, act{aCoal, ms, 1}, act{aCoal, ms, 0})),
		"1ms e1, 1ms e2, 1ms p0.0, 1ms p0.1, 1ms p0.2, 1ms e3, 1ms e4, 1ms e5", 5},
	// The process Resumed mid-batch files a coalesced event, which reuses
	// the interrupted batch's Event: a merge into it starts a new batch.
	{"TestCoalescedBatchNotReusedAfterResume", sc([][]act{{{aAwait, 0, 0}, {aCoal, ms, 0}, {aCoal, ms, 0}}}, [][]act{nil, {{aResume, 0, 0}}},
		until(forever, act{aSpawn, 0, 0}, act{aCoal, ms, 1}, act{aCoal, ms, 0}, act{aCoal, ms, 0})),
		"1ms e1, 1ms p0.0, 1ms p0.1, 1ms p0.2, 1ms e2, 1ms e3, 2ms e4, 2ms e5", 3},
	{"TestAfterCoalescedMergesAdjacent", sc(nil, [][]act{repeat(3, act{aCoal, ms, 1})}, until(forever, act{aAfter, 0, 0})),
		"0s e1, 1ms e2, 1ms e3, 1ms e4", 2},
	{"TestAfterCoalescedNoMergeAcrossSchedule", sc(nil, [][]act{{{aCoal, ms, 1}, {aAfter, ms, 1}, {aCoal, ms, 1}}}, until(forever, act{aAfter, 0, 0})),
		"0s e1, 1ms e2, 1ms e3, 1ms e4", 4},
	{"TestAfterCoalescedNoMergeAcrossDeadline", sc(nil, [][]act{{{aCoal, 2 * ms, 1}, {aCoal, ms, 1}}}, until(forever, act{aAfter, 0, 0})),
		"0s e1, 1ms e3, 2ms e2", 3},
	// A callback that has started takes no merge, though nothing was
	// filed since: as a lone event and as the last of a batch.
	{"TestAfterCoalescedBatchClosesOnFire", sc(nil, [][]act{nil, {{aCoal, 0, 0}}}, until(forever, act{aCoal, 0, 1})),
		"0s e1, 0s e2", 2},
	{"TestAfterCoalescedBatchClosesOnFire", sc(nil, [][]act{nil, {{aCoal, 0, 0}}}, until(forever, act{aCoal, 0, 0}, act{aCoal, 0, 0}, act{aCoal, 0, 1})),
		"0s e1, 0s e2, 0s e3, 0s e4", 2},
	// A Stop drops the rest of a batch, also when a process the batch
	// Resumed makes it.
	{"TestAfterCoalescedStopSuppressesRest", sc(nil, [][]act{{{aCoal, ms, 1}, {aCoal, ms, 2}}, {{aStop, 0, 0}}}, until(forever, act{aAfter, 0, 0})),
		"0s e1, 1ms e2", 2},
	{"TestAfterCoalescedStopSuppressesRest", sc([][]act{{{aAwait, 0, 0}, {aStop, 0, 0}}}, [][]act{{{aResume, 0, 0}}}, until(forever, act{aSpawn, 0, 0}, act{aCoal, ms, 0}, act{aCoal, ms, 1})),
		"1ms e1, 1ms p0.0, 1ms p0.1", 2},
	// A callback that counts the work of four events (Ran) is counted when
	// it runs: not when a Stop in an earlier callback at its instant, in
	// its batch or an event of its own, leaves it unrun.
	{"TestRanCountsWhatRuns", sc(nil, [][]act{nil, {{aStop, 0, 0}}, {{aRan, 0, 3}}}, until(forever, act{aCoal, ms, 0}, act{aCoal, ms, 2})),
		"1ms e1, 1ms e2", 1},
	{"TestRanCountsWhatRuns", sc(nil, [][]act{nil, {{aStop, 0, 0}}, {{aRan, 0, 3}}}, until(forever, act{aCoal, ms, 1}, act{aCoal, ms, 2})),
		"1ms e1", 1},
	{"TestRanCountsWhatRuns", sc(nil, [][]act{nil, {{aStop, 0, 0}}, {{aRan, 0, 3}}}, until(forever, act{aAfter, ms, 1}, act{aCoal, ms, 2})),
		"1ms e1", 1},
}

// cascade files events just below, at and just above every level
// boundary of the wheel, latest first.
func cascade() fixed {
	var acts []act
	var want []string
	for shift := 56; shift >= 8; shift -= 8 {
		for off := 1; off >= -1; off-- {
			acts = append(acts, act{aAfter, 1<<shift + time.Duration(off), 0})
		}
	}
	for i := len(acts) - 1; i >= 0; i-- {
		want = append(want, mark{acts[i].d, i + 1, 0, 0}.String())
	}
	return fixed{"TestCascadeBoundaryTimes", sc(nil, nil, until(forever, acts...)), strings.Join(want, ", "), 21}
}

// reserved grows the queue of one instant while it is popped from: 60
// events, each filing two more behind it.
func reserved() fixed {
	var want []string
	for id := 1; id <= 180; id++ {
		want = append(want, fmt.Sprint("0s e", id))
	}
	s := sc(nil, [][]act{{{aAfter, 0, 1}, {aAfter, 0, 1}}}, until(forever, repeat(60, act{aAfter, 0, 0})...))
	return fixed{"TestReserveRunqGrowsInOrder", s, strings.Join(want, ", "), 180}
}

// playFixed plays the rows of the calling test.
func playFixed(t *testing.T) {
	n := 0
	for _, row := range fixedScripts {
		if row.test != t.Name() {
			continue
		}
		n++
		var km *real
		if err := choice.Run(nil, func(*choice.Tape) (err error) { km, err = play(row.s, true, &cover{}); return err }); err != nil {
			t.Fatalf("row %d: %v", n, err)
		}
		var got []string
		for _, m := range km.r.trace {
			got = append(got, m.String())
		}
		if g := strings.Join(got, ", "); g != row.want {
			t.Errorf("row %d left the trace\n%s\nwant\n%s", n, g, row.want)
		}
		if pops := km.k.Counters().Pops; row.pops > 0 && pops != row.pops {
			t.Errorf("row %d popped %d kernel events, want %d", n, pops, row.pops)
		}
	}
	if n == 0 {
		t.Fatal("no fixed script names this test")
	}
}

func TestEventsRunInTimeOrder(t *testing.T)                 { playFixed(t) }
func TestSameTimeEventsRunInInsertionOrder(t *testing.T)    { playFixed(t) }
func TestAfterSchedulesRelative(t *testing.T)               { playFixed(t) }
func TestCancelPreventsRun(t *testing.T)                    { playFixed(t) }
func TestPastEventClampsToNow(t *testing.T)                 { playFixed(t) }
func TestRunUntilStopsAtDeadline(t *testing.T)              { playFixed(t) }
func TestStopHaltsRun(t *testing.T)                         { playFixed(t) }
func TestProcSleepAdvancesClock(t *testing.T)               { playFixed(t) }
func TestSleepNegativeIsZero(t *testing.T)                  { playFixed(t) }
func TestParkAndWake(t *testing.T)                          { playFixed(t) }
func TestWakeBeforeParkIsRemembered(t *testing.T)           { playFixed(t) }
func TestSpuriousWakeToleratedByConditionLoop(t *testing.T) { playFixed(t) }
func TestIdleReportsParkedProcs(t *testing.T)               { playFixed(t) }
func TestTwoProcsInterleaveDeterministically(t *testing.T)  { playFixed(t) }
func TestNestedSpawn(t *testing.T)                          { playFixed(t) }
func TestSplitDeadlineWhileProcHoldsBaton(t *testing.T)     { playFixed(t) }
func TestRunUntilNeverMovesClockBack(t *testing.T)          { playFixed(t) }
func TestCascadeBoundaryTimes(t *testing.T)                 { playFixed(t) }
func TestCascadeFromNonZeroNow(t *testing.T)                { playFixed(t) }
func TestCancelAfterCascade(t *testing.T)                   { playFixed(t) }
func TestRunUntilDeadlineInsideBucketSpan(t *testing.T)     { playFixed(t) }
func TestRunUntilDeadlineInsideFirstBucket(t *testing.T)    { playFixed(t) }
func TestRunUntilRepeatedDeadlinesAcrossSpans(t *testing.T) { playFixed(t) }
func TestWheelThenSameInstantOrder(t *testing.T)            { playFixed(t) }
func TestReserveRunqGrowsInOrder(t *testing.T)              { playFixed(t) }
func TestStopDoesNotCancelHandBack(t *testing.T)            { playFixed(t) }
func TestResumeFromCoalescedCallback(t *testing.T)          { playFixed(t) }
func TestCoalescedBatchNotReusedAfterResume(t *testing.T)   { playFixed(t) }
func TestAfterCoalescedMergesAdjacent(t *testing.T)         { playFixed(t) }
func TestAfterCoalescedNoMergeAcrossSchedule(t *testing.T)  { playFixed(t) }
func TestAfterCoalescedNoMergeAcrossDeadline(t *testing.T)  { playFixed(t) }
func TestAfterCoalescedBatchClosesOnFire(t *testing.T)      { playFixed(t) }
func TestAfterCoalescedStopSuppressesRest(t *testing.T)     { playFixed(t) }
func TestRanCountsWhatRuns(t *testing.T)                    { playFixed(t) }

func TestShutdownUnblocksParkedProcs(t *testing.T) {
	k := New(1)
	for i := 0; i < 5; i++ {
		k.Spawn("p", func(p *Proc) {
			for {
				p.Park("forever")
			}
		})
	}
	k.Run()
	k.Shutdown()
	for _, name := range k.Idle() {
		t.Errorf("proc %s still parked after Shutdown", name)
	}
}

func TestDeterministicRand(t *testing.T) {
	k, want := New(42), rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if k.Rand().Int63() != want.Int63() {
			t.Fatal("the kernel's random source is not the seed's")
		}
	}
}

// TestRunqResetsWhenDrained runs 10 000 instants of three events each:
// the queue is cut back whenever it is drained, so it never holds more
// than one instant.
func TestRunqResetsWhenDrained(t *testing.T) {
	k := New(1)
	for i := 1; i <= 3*10000; i++ {
		k.After(time.Duration((i+2)/3), "e", func() {})
	}
	k.Run()
	if got := k.Dispatched(); got != 30000 {
		t.Fatalf("dispatched %d events, want 30000", got)
	}
	if c := cap(k.runq); c > 4 {
		t.Errorf("the queue grew to %d slots for instants of three events", c)
	}
}

// TestEventOrderProperty checks with random timestamp sets that the
// kernel always dispatches in nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		k := New(1)
		var fired []time.Duration
		for _, o := range offsets {
			k.After(time.Duration(o)*time.Microsecond, "e", func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		return len(fired) == len(offsets) && slices.IsSorted(fired)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
