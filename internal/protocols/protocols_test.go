package protocols

import (
	"math"
	"testing"
	"time"

	"mether/internal/workload"
)

// count runs one counter configuration, failing the test on an error.
func count(t testing.TB, cfg Config) workload.Report {
	t.Helper()
	wl, err := Counter(cfg)
	var r workload.Report
	if err == nil {
		r, err = cfg.Run(wl)
	}
	if err != nil {
		t.Fatalf("%v: %v", cfg.Protocol, err)
	}
	return r
}

// runQuick executes a protocol at reduced target for test speed.
func runQuick(t *testing.T, p Protocol, target uint32) workload.Report {
	return count(t, Config{Protocol: p, Target: target, Options: workload.Options{Cap: 600 * time.Second, Seed: 1}})
}

func TestAllProtocolsCompleteAndCount(t *testing.T) {
	for _, p := range []Protocol{
		BaselineSingle, BaselineLocalPair, P1FullPage, P2ShortPage,
		P3DisjointRO, P3Hysteresis, P4DataDriven, P5Final,
	} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := runQuick(t, p, 64)
			if r.DNF {
				t.Fatalf("%v did not finish: %+v", p, r)
			}
			if r.Ops != 64 {
				t.Errorf("additions = %d, want 64", r.Ops)
			}
			if r.Wall <= 0 {
				t.Error("wall time not positive")
			}
		})
	}
}

func TestBaselineSingleIsMicroseconds(t *testing.T) {
	// Paper: 1024 increments alone run in ~50 ms (~50 µs each).
	r := runQuick(t, BaselineSingle, 1024)
	perAdd := r.Wall / time.Duration(r.Ops)
	if perAdd < 30*time.Microsecond || perAdd > 200*time.Microsecond {
		t.Errorf("per-addition cost = %v, want ~50µs", perAdd)
	}
	if r.Net.WireBytes != 0 {
		t.Error("single process used the network")
	}
}

func TestLocalPairThrashesQuanta(t *testing.T) {
	// Paper: two processes on one host take ~79 ms per addition (a
	// quantum plus a switch), with CPU time ≈ wall time.
	r := runQuick(t, BaselineLocalPair, 64)
	perAdd := r.Wall / time.Duration(r.Ops)
	if perAdd < 50*time.Millisecond || perAdd > 110*time.Millisecond {
		t.Errorf("per-addition = %v, want ~73ms (quantum+switch)", perAdd)
	}
	if r.Net.WireBytes != 0 {
		t.Error("local pair used the network")
	}
	busy := r.Host0.User + r.Host0.Sys
	if busy < r.Wall*8/10 {
		t.Errorf("cpu %v should be close to wall %v (pure spinning)", busy, r.Wall)
	}
}

// TestFigureShapes asserts the paper's cross-protocol ordering claims —
// the "who wins, by roughly what factor" content of Figures 4-9.
func TestFigureShapes(t *testing.T) {
	const target = 256
	p1 := runQuick(t, P1FullPage, target)
	p2 := runQuick(t, P2ShortPage, target)
	p3 := runQuick(t, P3DisjointRO, target)
	p3h := runQuick(t, P3Hysteresis, target)
	p4 := runQuick(t, P4DataDriven, target)
	p5 := runQuick(t, P5Final, target)
	local := runQuick(t, BaselineLocalPair, target)

	// Figure 4 vs 5: short pages slash network load by an order of
	// magnitude or more and cut latency roughly in half.
	if p1.Net.WireBytes < 10*p2.Net.WireBytes {
		t.Errorf("net bytes: P1 %d should be >= 10x P2 %d", p1.Net.WireBytes, p2.Net.WireBytes)
	}
	if p1.LatMean < p2.LatMean*3/2 {
		t.Errorf("latency: P1 %v should clearly exceed P2 %v", p1.LatMean, p2.LatMean)
	}
	if p1.Wall <= p2.Wall {
		t.Errorf("wall: P1 %v should exceed P2 %v", p1.Wall, p2.Wall)
	}

	// Figure 6: the spin protocol is degenerate — loss/win far beyond
	// any finishing protocol's.
	if p3.LossWin() < 2*p1.LossWin() {
		t.Errorf("P3 loss/win %f should dwarf P1's %f", p3.LossWin(), p1.LossWin())
	}
	if p3.Host0.User < 2*p3h.Host0.User {
		t.Errorf("P3 user %v should dwarf P3h's %v (spinning)", p3.Host0.User, p3h.Host0.User)
	}

	// Figure 7: hysteresis restores progress with sys >> user.
	if p3h.LossWin() > 200 {
		t.Errorf("P3h loss/win = %f, want ~100", p3h.LossWin())
	}
	if p3h.Host0.System() < p3h.Host0.User {
		t.Errorf("P3h should be system-time dominated: sys %v vs user %v", p3h.Host0.System(), p3h.Host0.User)
	}

	// Figure 8: protocol 4 has the worst context-switch rate and spins
	// far more than protocol 2.
	for name, o := range map[string]workload.Report{"P1": p1, "P2": p2, "P3h": p3h, "P5": p5} {
		if p4.CtxPerOp() <= o.CtxPerOp() {
			t.Errorf("P4 ctx/add %f should exceed %s's %f", p4.CtxPerOp(), name, o.CtxPerOp())
		}
	}
	if p4.LossWin() < 2*p2.LossWin() {
		t.Errorf("P4 loss/win %f should clearly exceed P2's %f", p4.LossWin(), p2.LossWin())
	}

	// Figure 9: the final protocol wins every axis among the distributed
	// protocols: fewest losses, least user time, lowest latency, least
	// network traffic per addition, and one data packet per increment.
	if p5.LossWin() > 10 {
		t.Errorf("P5 loss/win = %f, want single digits", p5.LossWin())
	}
	for name, o := range map[string]workload.Report{"P1": p1, "P2": p2, "P3": p3, "P3h": p3h, "P4": p4} {
		if p5.Host0.User >= o.Host0.User {
			t.Errorf("P5 user %v should be least (vs %s's %v)", p5.Host0.User, name, o.Host0.User)
		}
		if p5.LossWin() >= o.LossWin() {
			t.Errorf("P5 loss/win %f should be least (vs %s's %f)", p5.LossWin(), name, o.LossWin())
		}
	}
	// One broadcast per increment, no requests in steady state: packets
	// scale ~1 per addition (plus constant startup).
	maxPkts := uint64(target) + 30
	if p5.Net.Frames > maxPkts {
		t.Errorf("P5 packets = %d, want <= ~%d (one per increment)", p5.Net.Frames, maxPkts)
	}

	// The paper's motivating crossover: the final protocol over the
	// network beats two processes sharing memory on one machine.
	if p5.Wall >= local.Wall {
		t.Errorf("P5 over the network (%v) should beat the local pair (%v)", p5.Wall, local.Wall)
	}

	// Space: disjoint-page protocols pay two pages, shared-page ones one.
	if P5Final.Pages() != 2 || P3DisjointRO.Pages() != 2 || P3Hysteresis.Pages() != 2 {
		t.Error("disjoint protocols should use 2 pages")
	}
	if P1FullPage.Pages() != 1 || P2ShortPage.Pages() != 1 || P4DataDriven.Pages() != 1 || BaselineSingle.Pages() != 1 {
		t.Error("shared-page protocols should use 1 page")
	}
}

func TestP3DegeneratesToLivelockUnderLoss(t *testing.T) {
	// With realistic datagram loss the spin protocol's passive update
	// has no recovery path: one lost broadcast stalls it forever — the
	// paper's "never finished".
	r := count(t, Config{
		Protocol: P3DisjointRO,
		Target:   256,
		Options:  workload.Options{Cap: 60 * time.Second, Seed: 3, LossRate: 0.02},
	})
	if !r.DNF {
		t.Fatalf("P3 finished under loss: %+v", r)
	}
	if r.LossWin() < 1000 {
		t.Errorf("degenerate loss/win = %f, want >= 1000", r.LossWin())
	}
}

func TestHysteresisSurvivesLoss(t *testing.T) {
	// The purge-based active update is the recovery mechanism: the same
	// loss rate that livelocks P3 leaves P3h finishing fine.
	r := count(t, Config{
		Protocol:    P3Hysteresis,
		Target:      256,
		HysteresisN: 100,
		Options:     workload.Options{Cap: 120 * time.Second, Seed: 3, LossRate: 0.02},
	})
	if r.DNF {
		t.Fatalf("P3h did not finish under loss: %+v", r)
	}
}

func TestHysteresisSweepTradeoff(t *testing.T) {
	// Larger purge periods mean more spinning per win (ratio ~ N) and
	// eventually the degenerate regime; smaller ones mean more packets.
	var prev workload.Report
	for i, n := range []int{10, 100, 1000} {
		r := count(t, Config{Protocol: P3Hysteresis, Target: 128, HysteresisN: n, Options: workload.Options{Cap: 600 * time.Second, Seed: 1}})
		if r.DNF {
			t.Fatalf("N=%d did not finish", n)
		}
		if i > 0 {
			if r.LossWin() <= prev.LossWin() {
				t.Errorf("loss/win should grow with N: N=%d gives %f <= %f", n, r.LossWin(), prev.LossWin())
			}
			if r.Net.Frames >= prev.Net.Frames {
				t.Errorf("packets should shrink with N: N=%d gives %d >= %d", n, r.Net.Frames, prev.Net.Frames)
			}
		}
		prev = r
	}
}

func TestSleepHysteresisAblation(t *testing.T) {
	// The paper's first fix — a fixed delay after each loss — also
	// restores progress (they rejected it for interface reasons, not
	// because it didn't work).
	r := count(t, Config{
		Protocol:        P3Hysteresis,
		Target:          128,
		SleepHysteresis: 5 * time.Millisecond,
		Options:         workload.Options{Cap: 600 * time.Second, Seed: 1},
	})
	if r.DNF {
		t.Fatal("sleep hysteresis did not finish")
	}
	if r.LossWin() > 50 {
		t.Errorf("sleep hysteresis loss/win = %f; sleeping should slash losses", r.LossWin())
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	a := runQuick(t, P5Final, 128)
	b := runQuick(t, P5Final, 128)
	if a.Wall != b.Wall || a.Losses != b.Losses || a.Net.WireBytes != b.Net.WireBytes ||
		a.CtxSwitches != b.CtxSwitches || a.LatMean != b.LatMean {
		t.Errorf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestUnknownProtocolErrors(t *testing.T) {
	if _, err := Counter(Config{Protocol: Protocol(99)}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestReportRates(t *testing.T) {
	r := runQuick(t, P2ShortPage, 64)
	if r.NetBytesPerSec <= 0 {
		t.Error("network rate not computed")
	}
	if r.CtxPerOp() <= 0 {
		t.Error("ctx/add not computed")
	}
	if r.LatMean <= 0 {
		t.Error("latency not recorded")
	}
	wantBytes := float64(r.Net.WireBytes) / r.Wall.Seconds()
	if diff := r.NetBytesPerSec - wantBytes; diff > 1 || diff < -1 {
		t.Errorf("rate %f != bytes/wall %f", r.NetBytesPerSec, wantBytes)
	}
}

// TestTarget: every command's -target is range-checked here, before
// anything runs; 0 would run as the default 1024.
func TestTarget(t *testing.T) {
	for _, tc := range []struct {
		in      uint
		want    uint32
		wantErr bool
	}{
		{0, 0, true},
		{1, 1, false},
		{1024, 1024, false},
		{math.MaxUint32, math.MaxUint32, false},
		{math.MaxUint32 + 1, 0, true},
	} {
		got, err := Target(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("Target(%d) = %d, %v; want %d, error %v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}

// TestPositive holds the command-line check beside Target: a zero or
// negative seed would otherwise run as the default under the flag's
// name.
func TestPositive(t *testing.T) {
	for _, tc := range []struct {
		flag    string
		err     error
		wantErr bool
	}{
		{"-seed 0", Positive("seed", 0), true},
		{"-seed -1", Positive("seed", -1), true},
		{"-seed 1", Positive("seed", 1), false},
		{"-seed MaxInt64", Positive("seed", math.MaxInt64), false},
	} {
		if (tc.err != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %v", tc.flag, tc.err, tc.wantErr)
		}
	}
}
