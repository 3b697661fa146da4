// Command metherbench regenerates every table and figure of the paper's
// evaluation as the Markdown of EXPERIMENTS.md: the baselines of Section
// 4, Figures 4-9 (the six user protocols) and their ablations, the
// broadcast fan-out experiment, the solver speedup claim of Section 3,
// and the MemNet comparison of Sections 1/6 — printing the paper's
// reported values next to the simulation's measurements. Every Mether
// cell is a sweep scenario: one sweep.Runner.Run measures them all, and
// the tables are rendered from its results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mether"
	"mether/internal/memnet"
	"mether/internal/protocols"
	"mether/internal/solver"
	"mether/internal/stats"
	"mether/internal/sweep"
)

var (
	flagTarget = flag.Uint("target", 1024, "counter target (paper: 1024)")
	flagSeed   = flag.Int64("seed", 1, "simulation seed")
	flagQuick  = flag.Bool("quick", false, "reduced scale for smoke runs (target 128, small solver)")
)

// section is one part of the document measured by sweep scenarios: its
// cells, and how their results render.
type section struct {
	cells  []sweep.Scenario
	render func(w *writer, cells []sweep.Scenario, rs []sweep.Result)
}

func main() {
	flag.Parse()
	target, err := protocols.Target(*flagTarget)
	if err == nil {
		err = protocols.Positive("seed", *flagSeed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "metherbench:", err)
		os.Exit(1)
	}
	solverN := 400_000
	if *flagQuick {
		target = 128
		solverN = 40_000
	}

	o := sweep.Options{Target: target, Seed: *flagSeed}
	sections := []section{
		{baselines(o), func(w *writer, _ []sweep.Scenario, rs []sweep.Result) { renderBaselines(w, target, rs) }},
		{sweep.FigureScenarios(o), func(w *writer, cells []sweep.Scenario, rs []sweep.Result) { renderFigures(w, target, cells, rs) }},
		{sweep.HysteresisSweep(o), renderHysteresis},
		{sweep.LossAblation(o), renderLoss},
		{sweep.KernelAblation(o), renderKernel},
		{fanout(o.Seed), renderFanout},
	}
	var scs []sweep.Scenario
	for _, s := range sections {
		scs = append(scs, s.cells...)
	}
	rep, _ := sweep.Runner{}.Run("metherbench", scs)
	for _, r := range rep.Scenarios {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", r.Name, r.Err)
			os.Exit(1)
		}
	}

	out := &writer{}
	rs := rep.Scenarios
	for _, s := range sections {
		s.render(out, s.cells, rs[:len(s.cells)])
		rs = rs[len(s.cells):]
	}
	runSolver(out, solverN)
	runMemNet(out, target)
	out.flush()
}

// baselines are the Section 4 runs without Mether: one process counting
// alone, and two processes sharing one host.
func baselines(o sweep.Options) []sweep.Scenario {
	return []sweep.Scenario{
		{Name: "baseline/single", Kind: sweep.KindCounter, Protocol: protocols.BaselineSingle, Target: o.Target, Seed: o.Seed},
		{Name: "baseline/local-pair", Kind: sweep.KindCounter, Protocol: protocols.BaselineLocalPair, Target: o.Target, Seed: o.Seed},
	}
}

// fanout is the broadcast-scaling experiment: one writer's purge serves
// any number of resident copies (like a hardware invalidate, "the cost
// ... is the same no matter how many caches have a copy"), while
// demand-refetch readers cost the writer per-reader traffic.
func fanout(seed int64) []sweep.Scenario {
	var out []sweep.Scenario
	for _, mode := range []protocols.FanoutMode{protocols.FanoutDataDriven, protocols.FanoutDemand} {
		for _, readers := range []int{1, 2, 4, 8} {
			out = append(out, sweep.Scenario{Name: fmt.Sprintf("fanout/%v/r%d", mode, readers), Kind: sweep.KindFanout,
				FanoutMode: mode, Readers: readers, Updates: 32, Seed: seed})
		}
	}
	return out
}

func renderFanout(w *writer, cells []sweep.Scenario, rs []sweep.Result) {
	w.section("Experiment: one writer, N readers — broadcast vs demand scaling")
	var rows [][]string
	for i, r := range rs {
		if r.DNF {
			fmt.Fprintf(os.Stderr, "%s: readers did not finish\n", r.Name)
			os.Exit(1)
		}
		// A fanout row's CPU is host 0's, the writer's.
		rows = append(rows, []string{
			cells[i].FanoutMode.String(), fmt.Sprint(cells[i].Readers), fmt.Sprintf("%.1f", stats.Ratio(r.Packets, r.Ops)),
			fmtNS(r.UserNS + sysNS(r)), fmtNS(r.WallNS),
		})
	}
	w.table([]string{"mode", "readers", "packets/update", "writer CPU", "wall"}, rows)
	w.notef("data-driven fan-out stays flat in reader count; demand-refetch scales linearly.")
}

// renderKernel is the paper's predicted fix: moving the server into the
// kernel removes the context-switch bottleneck.
func renderKernel(w *writer, _ []sweep.Scenario, rs []sweep.Result) {
	w.section("Ablation: user-level vs in-kernel server (the paper's future work)")
	var rows [][]string
	for _, r := range rs {
		rows = append(rows, []string{
			r.Name, fmtNS(r.WallNS), fmtNS(r.LatMeanNS),
			fmt.Sprintf("%.1f", r.LossWin), fmtNS(sysNS(r)),
		})
	}
	w.table([]string{"scenario", "wall", "latency", "loss/win", "sys+server"}, rows)
	w.notef("\"That problem will be solved by ... a migration of the user level server code to the kernel.\"")
}

// writer accumulates the Markdown document.
type writer struct {
	buf strings.Builder
}

func (w *writer) section(title string) {
	fmt.Fprintf(&w.buf, "\n### %s\n\n", title)
}

func (w *writer) table(headers []string, rows [][]string) {
	fmt.Fprintf(&w.buf, "| %s |\n", strings.Join(headers, " | "))
	fmt.Fprintf(&w.buf, "|%s\n", strings.Repeat(" --- |", len(headers)))
	for _, r := range rows {
		fmt.Fprintf(&w.buf, "| %s |\n", strings.Join(r, " | "))
	}
}

func (w *writer) notef(format string, args ...any) {
	fmt.Fprintf(&w.buf, format+"\n", args...)
}

func (w *writer) flush() { fmt.Print(w.buf.String()) }

func scale(target uint32) float64 { return 1024 / float64(target) }

// sysNS is a counter row's "Sys Time": host 0's system time plus its
// server's, as workload.CPU.System counts it.
func sysNS(r sweep.Result) int64 { return r.SysNS + r.ServerNS }

// ctxPerOp is context switches per addition.
func ctxPerOp(r sweep.Result) float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.CtxSwitches) / float64(r.Ops)
}

// figSpec carries the paper's published values for one figure; the run
// configuration itself comes from the sweep engine's figure scenarios,
// matched by protocol. paper holds the paper's values (empty string =
// not reported).
type figSpec struct {
	title string
	paper map[string]string
}

var figures = map[protocols.Protocol]figSpec{
	protocols.P1FullPage: {
		title: "Figure 4: first user protocol — increment on full-size page",
		paper: map[string]string{
			"wall": "128 s", "user": "10 s", "sys": "30 s",
			"net": "66 kB/s", "ctx": "4 /add", "space": "1 page",
			"lat": "120 ms", "losswin": "500",
		},
	},
	protocols.P2ShortPage: {
		title: "Figure 5: second user protocol — spin on short page",
		paper: map[string]string{
			"wall": "68 s", "user": "3 s", "sys": "17 s",
			"net": "2.2 kB/s", "ctx": "4 /add", "space": "1 page",
			"lat": "68 ms", "losswin": "134",
		},
	},
	protocols.P3DisjointRO: {
		title: "Figure 6: third user protocol — spin on disjoint pages, one read-only",
		paper: map[string]string{
			"wall": "never finished", "user": "never finished", "sys": "never finished",
			"net": "n/a", "ctx": "n/a", "space": "2 pages",
			"lat": "very high", "losswin": "10000",
		},
	},
	protocols.P3Hysteresis: {
		title: "Figure 7: third user protocol with hysteresis",
		paper: map[string]string{
			"wall": "77 s", "user": "19 s", "sys": "50 s",
			"net": "~1 kB/s", "ctx": "5 /add", "space": "2 pages",
			"lat": "45 ms", "losswin": "80",
		},
	},
	protocols.P4DataDriven: {
		title: "Figure 8: fourth user protocol — spin on short page, data driven",
		paper: map[string]string{
			"wall": "68 s", "user": "7 s", "sys": "50 s",
			"net": "~1 kB/s", "ctx": "10 /add", "space": "1 page",
			"lat": "65 ms", "losswin": "400",
		},
	},
	protocols.P5Final: {
		title: "Figure 9: final user protocol — spin on disjoint pages, one data driven",
		paper: map[string]string{
			"wall": "57 s", "user": "0.7 s", "sys": "6 s",
			"net": "0.5 kB/s", "ctx": "5 /add", "space": "2 pages",
			"lat": "20 ms", "losswin": "3",
		},
	},
}

func renderBaselines(w *writer, target uint32, rs []sweep.Result) {
	w.section(fmt.Sprintf("Section 4 baselines (target %d)", target))
	single, local := rs[0], rs[1]
	s := scale(target)
	w.table(
		[]string{"baseline", "paper (1024)", "measured", "scaled to 1024"},
		[][]string{
			{"single process", "~50 ms", fmtNS(single.WallNS), fmtScaled(single.WallNS, s)},
			{"two processes, one host (wall)", "81 s", fmtNS(local.WallNS), fmtScaled(local.WallNS, s)},
			{"two processes, one host (cpu/proc)", "37 s", fmtNS((local.UserNS + local.SysNS) / 2), fmtScaled(local.UserNS+local.SysNS, s/2)},
		},
	)
}

// renderFigures adds the paper's published values alongside the
// measurements of the sweep engine's figure scenarios (which own the
// Figure-6 loss injection and cap).
func renderFigures(w *writer, target uint32, cells []sweep.Scenario, rs []sweep.Result) {
	s := scale(target)
	for i, r := range rs {
		p := cells[i].Protocol
		f, ok := figures[p]
		if !ok {
			fmt.Fprintf(os.Stderr, "no paper values for %v\n", p)
			os.Exit(1)
		}
		w.section(f.title)
		rows := [][]string{
			{"Wallclock Time", f.paper["wall"], fmtWall(r, 1), fmtWallScaled(r, s)},
			{"User Time", f.paper["user"], fmtNS(r.UserNS), fmtScaled(r.UserNS, s)},
			{"Sys Time", f.paper["sys"], fmtNS(sysNS(r)), fmtScaled(sysNS(r), s)},
			{"Network Load", f.paper["net"], fmt.Sprintf("%.1f kB/s", r.NetBytesPerSec/1000), fmt.Sprintf("%.1f kB/s", r.NetBytesPerSec/1000)},
			{"Context Switches", f.paper["ctx"], fmt.Sprintf("%.1f /add", ctxPerOp(r)), fmt.Sprintf("%.1f /add", ctxPerOp(r))},
			{"Space", f.paper["space"], fmt.Sprintf("%d page(s) (%d bytes)", p.Pages(), p.Pages()*mether.PageSize), ""},
			{"Average Latency", f.paper["lat"], fmtNS(r.LatMeanNS), fmtNS(r.LatMeanNS)},
			{"Losses/Wins", f.paper["losswin"], fmt.Sprintf("%.1f", r.LossWin), fmt.Sprintf("%.1f", r.LossWin)},
		}
		w.table([]string{"metric", "paper", "measured", "scaled/rate"}, rows)
		if r.DNF {
			w.notef("run did not finish within the cap (additions reached: %d) — the paper's \"never finished\"", r.Ops)
		}
	}
}

func renderHysteresis(w *writer, _ []sweep.Scenario, rs []sweep.Result) {
	w.section("Ablation: hysteresis period N (Figure 7 discussion)")
	var rows [][]string
	for _, r := range rs {
		rows = append(rows, []string{
			r.Name, fmtNS(r.WallNS), fmt.Sprintf("%.1f", r.LossWin),
			fmt.Sprint(r.Packets), fmtNS(sysNS(r)), fmtNS(r.UserNS),
			fmt.Sprint(!r.DNF),
		})
	}
	w.table([]string{"scenario", "wall", "loss/win", "packets", "sys", "user", "finished"}, rows)
}

func renderLoss(w *writer, _ []sweep.Scenario, rs []sweep.Result) {
	w.section("Ablation: datagram loss vs. protocol liveness (reliability discussion, Section 3)")
	var rows [][]string
	for _, r := range rs {
		rows = append(rows, []string{
			r.Name, fmt.Sprint(!r.DNF), fmt.Sprint(r.Ops),
			fmt.Sprintf("%.1f", r.LossWin), fmt.Sprint(r.Retries),
		})
	}
	w.table([]string{"scenario", "finished", "additions", "loss/win", "retries"}, rows)
	w.notef("the passive spin protocol (Fig. 6) has no recovery path: one lost broadcast stalls it forever;")
	w.notef("the hysteresis purge (Fig. 7) is the recovery mechanism, and demand protocols retry.")
}

func runSolver(w *writer, n int) {
	w.section(fmt.Sprintf("Section 3: sparse solver speedup over csend/crecv pipes (N=%d)", n))
	headers := []string{"processors", "wall", "speedup", "efficiency", "messages", "net bytes", "max |x - x_seq|"}
	var rows [][]string
	for _, hosts := range []int{1, 2, 3, 4} {
		r, err := solver.RunDistributed(solver.Config{N: n, Hosts: hosts, Sweeps: 10, Seed: *flagSeed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "solver %d hosts: %v\n", hosts, err)
			os.Exit(1)
		}
		rows = append(rows, []string{
			fmt.Sprint(hosts), fmtDur(r.Wall), fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprintf("%.0f%%", r.Efficient*100), fmt.Sprint(r.Messages),
			fmt.Sprint(r.NetBytes), fmt.Sprintf("%.1e", r.MaxDiff),
		})
	}
	w.table(headers, rows)
	w.notef("paper: \"the program shows linear speedup on up to four processors\"")
}

func runMemNet(w *writer, target uint32) {
	w.section("Sections 1/6: the same best protocol on MemNet (hardware DSM)")
	headers := []string{"shape", "wall", "loss/win", "ring fetches", "ring bytes", "finished"}
	var rows [][]string
	for _, s := range []memnet.Shape{memnet.SharedChunk, memnet.DisjointSpin, memnet.DisjointBlocked} {
		r, err := memnet.RunCounter(memnet.Config{Shape: s, Target: target, Seed: *flagSeed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "memnet %v: %v\n", s, err)
			os.Exit(1)
		}
		rows = append(rows, []string{
			s.String(), fmtDur(r.Wall), fmt.Sprintf("%.1f", r.LossWin),
			fmt.Sprint(r.Fetches), fmt.Sprint(r.RingBytes), fmt.Sprint(!r.DNF),
		})
	}
	w.table(headers, rows)
	w.notef("the stationary-writer, blocked-waiting shape wins on both systems — the paper's cross-system result.")
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= 10*time.Second:
		return fmt.Sprintf("%.1f s", d.Seconds())
	case d >= time.Second:
		return fmt.Sprintf("%.2f s", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1f ms", float64(d.Microseconds())/1000)
	default:
		return d.String()
	}
}

// fmtNS renders a virtual duration in nanoseconds.
func fmtNS(ns int64) string { return fmtDur(time.Duration(ns)) }

// fmtScaled renders a virtual duration scaled by s.
func fmtScaled(ns int64, s float64) string { return fmtDur(time.Duration(float64(ns) * s)) }

func fmtWall(r sweep.Result, s float64) string {
	if r.DNF {
		return fmt.Sprintf("DNF (capped, %d adds)", r.Ops)
	}
	return fmtScaled(r.WallNS, s)
}

func fmtWallScaled(r sweep.Result, s float64) string {
	if r.DNF {
		return "DNF"
	}
	return fmtScaled(r.WallNS, s)
}
