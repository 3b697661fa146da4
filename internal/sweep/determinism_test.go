package sweep

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// smokeSeed is the seed the determinism tests run the smoke grid under.
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

// runSmokeBytes runs the smoke grid on a pool of the given size and
// returns the marshalled JSON report.
func runSmokeBytes(seed int64, workers int) []byte {
	rep, _ := Runner{Workers: workers}.Run("smoke", smoke(seed))
	return mustJSON(rep)
}

// serialSmoke is the reference every determinism test below compares
// its own run against: the smoke grid through a plain unordered serial
// loop — no Runner, no pool, no largest-first ordering — computed once.
// Two runs that each equal the reference equal each other, so every
// property is still asserted while each test pays for its own side only
// (the grid's 4096-host cell makes a smoke run seconds, not
// milliseconds).
var serialSmoke = sync.OnceValue(func() []byte {
	scs := smoke(smokeSeed)
	rep := Report{Grid: "smoke", Scenarios: make([]Result, len(scs))}
	for i, s := range scs {
		rep.Scenarios[i] = s.Run()
	}
	return mustJSON(rep)
})

// pooledSmoke is one Runner run of the smoke grid on four workers,
// shared by the test of its bytes (TestOrderedPoolMatchesUnorderedSerial)
// and the test of its results and timing (TestRunnerRunsAllScenarios).
var pooledSmoke = sync.OnceValues(func() (Report, Timing) {
	return Runner{Workers: 4}.Run("smoke", smoke(smokeSeed))
})

// TestReportDeterministicAcrossRuns proves the same grid and seed yield
// byte-identical reports on repeated runs: a second execution against
// the reference one.
func TestReportDeterministicAcrossRuns(t *testing.T) {
	a := serialSmoke()
	b := runSmokeBytes(smokeSeed, 2)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical sweeps produced different reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestReportDeterministicAcrossWorkerCounts proves pool scheduling never
// leaks into results: one worker and many workers agree byte-for-byte.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	want := serialSmoke()
	for _, workers := range []int{1, 8} {
		if got := runSmokeBytes(smokeSeed, workers); !bytes.Equal(want, got) {
			t.Fatalf("%d workers changed the report:\n--- reference ---\n%s\n--- %d workers ---\n%s", workers, want, workers, got)
		}
	}
}

// TestReportDeterministicAcrossGOMAXPROCS proves the parallel runner
// never leaks real-scheduler nondeterminism into a simulated World:
// GOMAXPROCS=1 and GOMAXPROCS=NumCPU produce byte-identical reports.
func TestReportDeterministicAcrossGOMAXPROCS(t *testing.T) {
	want := serialSmoke()
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		// 0 = one worker per GOMAXPROCS
		if got := runSmokeBytes(smokeSeed, 0); !bytes.Equal(want, got) {
			t.Fatalf("GOMAXPROCS=%d changed the report:\n--- reference ---\n%s\n--- GOMAXPROCS=%d ---\n%s", procs, want, procs, got)
		}
	}
}

// TestOrderedPoolMatchesUnorderedSerial pins down the long-pole
// scheduling satellite: the pool hands scenarios to workers
// largest-estimated-first, and this must be invisible — the report must
// stay byte-identical to a plain unordered serial loop over the grid
// (no Runner involved at all).
func TestOrderedPoolMatchesUnorderedSerial(t *testing.T) {
	want := serialSmoke()
	pooled, _ := pooledSmoke()
	if got := mustJSON(pooled); !bytes.Equal(want, got) {
		t.Fatalf("largest-first pool changed the report:\n--- unordered serial ---\n%s\n--- ordered pool ---\n%s", want, got)
	}
}

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
// hazard at once: seeded datagram loss on the wire, per-port loss at the
// bridges, both shapes, and owner placement across trunks.
func bridgedLossGrid() []Scenario {
	return []Scenario{
		{Name: "topo/stationary/t2-loss", Kind: KindStationary, Hosts: 8, Iters: 8,
			Trunks: 2, LossRate: 0.01, Seed: 5},
		{Name: "topo/stationary/t2-portloss", Kind: KindStationary, Hosts: 8, Iters: 8,
			Trunks: 2, PortLoss: 0.05, Seed: 5},
		{Name: "topo/hotspot/t2-loss", Kind: KindHotspot, Hosts: 4, Iters: 8,
			Trunks: 2, OwnerTrunk: 1, LossRate: 0.01, Seed: 5},
		{Name: "topo/barrier/t4-linear-loss", Kind: KindBarrier, Hosts: 8, Phases: 3,
			Trunks: 4, TrunkShape: "linear", LossRate: 0.01, Seed: 5},
	}
}

// TestBridgedLossReportDeterministic proves the topology axis keeps the
// engine's core property: a bridged multi-trunk world with seeded wire
// and bridge-port loss yields byte-identical reports across repeated
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
	if rep.Scenarios[1].BridgePortDrops == 0 {
		t.Errorf("port-loss cell dropped nothing at the bridge")
	}
}

// TestSeedChangesReport guards against the opposite failure: if two
// different seeds produced identical reports the determinism tests above
// would be vacuous.
func TestSeedChangesReport(t *testing.T) {
	if bytes.Equal(serialSmoke(), runSmokeBytes(99, 2)) {
		t.Error("different seeds produced byte-identical reports; seeds are not reaching the worlds")
	}
}
