package sweep

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Runner executes a grid of scenarios on a bounded worker pool. The
// zero value uses one worker per available core.
type Runner struct {
	// Workers bounds concurrent scenarios (default GOMAXPROCS).
	Workers int
}

// Timing carries the real-time measurements of a sweep execution. These
// describe the sweep engine itself (how well it saturated the machine)
// and are deliberately kept out of Report so reports stay deterministic.
type Timing struct {
	Workers int
	// Elapsed is the real wall-clock time of the whole sweep.
	Elapsed time.Duration
	// Serial is the sum of per-scenario real run times — the wall time a
	// one-worker execution would have needed.
	Serial time.Duration
	// Speedup is Serial / Elapsed: >1 means the pool overlapped work.
	Speedup float64
	// PerScenario holds each scenario's real run time, in grid order.
	PerScenario []time.Duration
	// Resumes is how many of the sweep's events switched coroutines
	// (World.Resumes, summed over the scenarios): the engine's dearest
	// kind of event, so a cost like the times above and in no Report.
	Resumes uint64
}

// Run executes every scenario and returns the deterministic Report
// (results in grid order) plus the real-time Timing. Each scenario is a
// sealed World on its own goroutine, so nothing about pool scheduling
// can leak into the results.
//
// Scenarios are handed to the pool largest-estimated-first (a
// longest-processing-time heuristic): heterogeneous grids like cluster
// mix cells whose runtimes differ by orders of magnitude, and starting
// the long poles first keeps the pool balanced instead of letting a
// giant cell picked up last serialize the whole tail. Dispatch order is
// invisible in the Report, which stays in grid order.
func (r Runner) Run(grid string, scs []Scenario) (Report, Timing) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scs) {
		workers = len(scs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]Result, len(scs))
	times := make([]time.Duration, len(scs))
	resumes := make([]uint64, len(scs))
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				results[i], resumes[i] = scs[i].run()
				times[i] = time.Since(t0)
			}
		}()
	}
	order := make([]int, len(scs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scs[order[a]].estCost() > scs[order[b]].estCost()
	})
	for _, i := range order {
		idx <- i
	}
	close(idx)
	wg.Wait()

	tm := Timing{Workers: workers, Elapsed: time.Since(start), PerScenario: times}
	for i, d := range times {
		tm.Serial += d
		tm.Resumes += resumes[i]
	}
	if tm.Elapsed > 0 {
		tm.Speedup = tm.Serial.Seconds() / tm.Elapsed.Seconds()
	}
	return Report{Grid: grid, Scenarios: results}, tm
}
