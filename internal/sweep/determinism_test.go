package sweep

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// smokeSeed is the seed the determinism tests run their grid under.
const smokeSeed = 42

// smoke is the smoke grid under seed, and mustJSON a report's bytes;
// neither can fail on the values the tests below hand them.
func smoke(seed int64) []Scenario {
	scs, err := Grid("smoke", Options{Seed: seed})
	if err != nil {
		panic(err)
	}
	return scs
}

func mustJSON(rep Report) []byte {
	b, err := rep.JSON()
	if err != nil {
		panic(err)
	}
	return b
}

// detGrid is what the determinism tests run under seed. Without -race it
// is the smoke grid: byte-identity across runs, worker counts and
// GOMAXPROCS is the property, and the smoke grid is the ground it must
// hold on. Under -race, which checks the runner's concurrency (the pool,
// the largest-first hand-out, the result slots), it is many short cells:
// the smoke grid without its 4096-host cell, on eight neighbouring seeds.
func detGrid(seed int64) []Scenario {
	if !raceBuild {
		return smoke(seed)
	}
	var scs []Scenario
	for i := int64(0); i < 8; i++ {
		for _, s := range smoke(seed + i) {
			if s.Hosts <= 64 {
				s.Name = fmt.Sprint(s.Name, "/", i)
				scs = append(scs, s)
			}
		}
	}
	return scs
}

// serialSmoke is the reference every determinism test below compares
// its own run against: the grid through a plain unordered serial loop —
// no Runner, no pool, no largest-first ordering — computed once.
var serialSmoke = sync.OnceValue(func() []byte {
	scs := detGrid(smokeSeed)
	rep := Report{Grid: "smoke", Scenarios: make([]Result, len(scs))}
	for i, s := range scs {
		rep.Scenarios[i] = s.Run()
	}
	return mustJSON(rep)
})

type pooled struct {
	rep Report
	tm  Timing
}

// pooledRuns holds the Runner runs of the grid under smokeSeed, one per
// distinct (GOMAXPROCS, workers).
var pooledRuns = map[[2]int]pooled{}

// pooledSmoke runs the grid under smokeSeed on a pool of workers (0: one
// per GOMAXPROCS) with GOMAXPROCS procs (0: as it is), once per distinct
// configuration: with two CPUs, GOMAXPROCS 2 and workers 0 is the
// 2-worker run again, and is not run twice.
func pooledSmoke(procs, workers int) (Report, Timing) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	key := [2]int{runtime.GOMAXPROCS(0), workers}
	if r, ok := pooledRuns[key]; ok {
		return r.rep, r.tm
	}
	rep, tm := Runner{Workers: workers}.Run("smoke", detGrid(smokeSeed))
	pooledRuns[key] = pooled{rep, tm}
	return rep, tm
}

// sameAsSerial fails t if the pooled run differs from the serial one.
func sameAsSerial(t *testing.T, procs, workers int) {
	t.Helper()
	rep, _ := pooledSmoke(procs, workers)
	if want, got := serialSmoke(), mustJSON(rep); !bytes.Equal(want, got) {
		t.Fatalf("GOMAXPROCS %d (0: unchanged), %d workers (0: one per GOMAXPROCS) changed the report:\n--- serial ---\n%s\n--- pooled ---\n%s",
			procs, workers, want, got)
	}
}

// TestReportDeterministicAcrossRuns proves the same grid and seed yield
// byte-identical reports on repeated runs: a second execution against
// the reference one.
func TestReportDeterministicAcrossRuns(t *testing.T) { sameAsSerial(t, 0, 2) }

// TestReportDeterministicAcrossWorkerCounts proves pool scheduling never
// leaks into results: one worker and many workers agree byte-for-byte.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	sameAsSerial(t, 0, 1)
	sameAsSerial(t, 0, 8)
}

// TestReportDeterministicAcrossGOMAXPROCS proves the parallel runner
// never leaks real-scheduler nondeterminism into a simulated World:
// GOMAXPROCS=1 and GOMAXPROCS=NumCPU produce byte-identical reports,
// with one worker per GOMAXPROCS.
func TestReportDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sameAsSerial(t, 1, 0)
	sameAsSerial(t, runtime.NumCPU(), 0)
}

// TestOrderedPoolMatchesUnorderedSerial pins down the long-pole
// scheduling satellite: the pool hands scenarios to workers
// largest-estimated-first, and this must be invisible — the report must
// stay byte-identical to a plain unordered serial loop over the grid
// (no Runner involved at all).
func TestOrderedPoolMatchesUnorderedSerial(t *testing.T) { sameAsSerial(t, 0, 4) }

// TestEstCostOrdersClusterLongPolesFirst sanity-checks the estimate the
// pool sorts by: in the cluster grid the 256-host broadcast-bound cells
// must rank ahead of every 16-host cell.
func TestEstCostOrdersClusterLongPolesFirst(t *testing.T) {
	scs, err := Grid("cluster", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var max16, min256 int64
	min256 = 1 << 62
	for _, s := range scs {
		switch s.Hosts {
		case 16:
			if c := s.estCost(); c > max16 {
				max16 = c
			}
		case 256:
			if c := s.estCost(); c < min256 {
				min256 = c
			}
		}
	}
	if min256 <= max16 {
		t.Errorf("estCost ranks a 256-host cell (%d) at or below a 16-host cell (%d)", min256, max16)
	}
}

// bridgedLossGrid is a small topology grid with every nondeterminism
// hazard at once: seeded datagram loss on the wire, both shapes, and
// owner placement across trunks.
func bridgedLossGrid() []Scenario {
	return []Scenario{
		{Name: "topo/stationary/t2-loss", Kind: KindStationary, Hosts: 8, Iters: 8,
			Trunks: 2, LossRate: 0.01, Seed: 5},
		{Name: "topo/hotspot/t2-loss", Kind: KindHotspot, Hosts: 4, Iters: 8,
			Trunks: 2, OwnerTrunk: 1, LossRate: 0.01, Seed: 5},
		{Name: "topo/barrier/t4-linear-loss", Kind: KindBarrier, Hosts: 8, Phases: 3,
			Trunks: 4, TrunkShape: "linear", LossRate: 0.01, Seed: 5},
	}
}

// TestBridgedLossReportDeterministic proves the topology axis keeps the
// engine's core property: a bridged multi-trunk world with seeded wire
// loss yields byte-identical reports across repeated
// runs and across worker counts.
func TestBridgedLossReportDeterministic(t *testing.T) {
	render := func(workers int) []byte {
		rep, _ := Runner{Workers: workers}.Run("topo", bridgedLossGrid())
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := render(1)
	if again := render(1); !bytes.Equal(serial, again) {
		t.Fatalf("two identical bridged lossy sweeps diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", serial, again)
	}
	if parallel := render(8); !bytes.Equal(serial, parallel) {
		t.Fatalf("worker count changed the bridged lossy report:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	// The grid must actually exercise the hazards it claims to cover.
	rep, _ := Runner{Workers: 2}.Run("topo", bridgedLossGrid())
	for _, r := range rep.Scenarios {
		if r.Err != "" {
			t.Errorf("%s failed: %s", r.Name, r.Err)
		}
		if r.BridgeForwarded == 0 {
			t.Errorf("%s forwarded no frames across bridges", r.Name)
		}
	}
}

// TestSeedChangesReport guards against the opposite failure: if two
// different seeds produced identical reports the determinism tests above
// would be vacuous.
func TestSeedChangesReport(t *testing.T) {
	rep, _ := Runner{Workers: 2}.Run("smoke", detGrid(99))
	if bytes.Equal(serialSmoke(), mustJSON(rep)) {
		t.Error("different seeds produced byte-identical reports; seeds are not reaching the worlds")
	}
}
