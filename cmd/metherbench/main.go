// Command metherbench regenerates every table and figure of the paper's
// evaluation: the baselines of Section 4, Figures 4-9 (the six user
// protocols), the solver speedup claim of Section 3, and the MemNet
// comparison of Sections 1/6 — printing the paper's reported values next
// to the simulation's measurements. With -md it emits Markdown suitable
// for EXPERIMENTS.md.
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
	"mether/internal/workload"
)

var (
	flagTarget = flag.Uint("target", 1024, "counter target (paper: 1024)")
	flagMD     = flag.Bool("md", false, "emit Markdown tables")
	flagSeed   = flag.Int64("seed", 1, "simulation seed")
	flagQuick  = flag.Bool("quick", false, "reduced scale for smoke runs (target 128, small solver)")
)

func main() {
	flag.Parse()
	target, err := protocols.Target(*flagTarget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metherbench:", err)
		os.Exit(1)
	}
	solverN := 400_000
	if *flagQuick {
		target = 128
		solverN = 40_000
	}

	out := &writer{md: *flagMD}
	runBaselines(out, target)
	runFigures(out, target)
	runHysteresisSweep(out, target)
	runLossAblation(out, target)
	runKernelServerAblation(out, target)
	runFanout(out)
	runSolver(out, solverN)
	runMemNet(out, target)
	out.flush()
}

// runFanout measures the broadcast-scaling property: one writer's purge
// serves any number of resident copies (like a hardware invalidate,
// "the cost ... is the same no matter how many caches have a copy"),
// while demand-refetch readers cost the writer per-reader traffic.
func runFanout(w *writer) {
	w.section("Experiment: one writer, N readers — broadcast vs demand scaling")
	headers := []string{"mode", "readers", "packets/update", "writer CPU", "wall"}
	var rows [][]string
	for _, mode := range []protocols.FanoutMode{protocols.FanoutDataDriven, protocols.FanoutDemand} {
		for _, readers := range []int{1, 2, 4, 8} {
			cfg := protocols.FanoutConfig{Mode: mode, Readers: readers, Updates: 32, Options: workload.Options{Seed: *flagSeed}}
			wl, err := protocols.Fanout(cfg)
			var r workload.Report
			if err == nil {
				r, err = cfg.Run(wl)
			}
			if err == nil && r.DNF {
				err = fmt.Errorf("readers did not finish")
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "fanout %v/%d: %v\n", mode, readers, err)
				os.Exit(1)
			}
			// The wall is the quiet instant: EXPERIMENTS.md pins this table.
			rows = append(rows, []string{
				mode.String(), fmt.Sprint(readers), fmt.Sprintf("%.1f", stats.Ratio(r.Packets, r.Ops)),
				fmtDur(r.Host0.Total()), fmtDur(r.Quiet),
			})
		}
	}
	w.table(headers, rows)
	w.notef("data-driven fan-out stays flat in reader count; demand-refetch scales linearly.")
}

// runKernelServerAblation measures the paper's predicted fix: moving the
// server into the kernel removes the context-switch bottleneck. The
// configurations come from the sweep engine's kernel-ablation grid.
func runKernelServerAblation(w *writer, target uint32) {
	w.section("Ablation: user-level vs in-kernel server (the paper's future work)")
	headers := []string{"scenario", "wall", "latency", "loss/win", "sys+server"}
	var rows [][]string
	for _, sc := range sweep.KernelAblation(sweep.Options{Target: target, Seed: *flagSeed}) {
		r := mustRun(sc.CounterConfig())
		rows = append(rows, []string{
			sc.Name, fmtDur(r.Wall), fmtDur(r.LatMean),
			fmt.Sprintf("%.1f", r.LossWin()), fmtDur(r.Host0.System()),
		})
	}
	w.table(headers, rows)
	w.notef("\"That problem will be solved by ... a migration of the user level server code to the kernel.\"")
}

type writer struct {
	md  bool
	buf strings.Builder
}

func (w *writer) section(title string) {
	if w.md {
		fmt.Fprintf(&w.buf, "\n### %s\n\n", title)
	} else {
		fmt.Fprintf(&w.buf, "\n== %s ==\n", title)
	}
}

func (w *writer) table(headers []string, rows [][]string) {
	if w.md {
		fmt.Fprintf(&w.buf, "| %s |\n", strings.Join(headers, " | "))
		seps := make([]string, len(headers))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(&w.buf, "| %s |\n", strings.Join(seps, " | "))
		for _, r := range rows {
			fmt.Fprintf(&w.buf, "| %s |\n", strings.Join(r, " | "))
		}
		return
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&w.buf, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(&w.buf)
	}
	line(headers)
	for _, r := range rows {
		line(r)
	}
}

func (w *writer) notef(format string, args ...any) {
	fmt.Fprintf(&w.buf, format+"\n", args...)
}

func (w *writer) flush() { fmt.Print(w.buf.String()) }

// mustRun runs a counter configuration (and the error of its making)
// or exits.
func mustRun(cfg protocols.Config, err error) workload.Report {
	var r workload.Report
	if err == nil {
		var wl workload.Workload
		if wl, err = protocols.Counter(cfg); err == nil {
			r, err = cfg.Run(wl)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "run %v: %v\n", cfg.Protocol, err)
		os.Exit(1)
	}
	return r
}

func scale(target uint32) float64 { return 1024 / float64(target) }

// figSpec carries the paper's published values for one figure; the run
// configuration itself comes from the sweep engine's figure scenarios,
// matched by protocol. paper holds the paper's values (empty string =
// not reported).
type figSpec struct {
	title string
	proto protocols.Protocol
	paper map[string]string
}

// figSpecFor finds the paper values for a figure scenario's protocol.
func figSpecFor(p protocols.Protocol) (figSpec, bool) {
	for _, f := range figures {
		if f.proto == p {
			return f, true
		}
	}
	return figSpec{}, false
}

var figures = []figSpec{
	{
		title: "Figure 4: first user protocol — increment on full-size page",
		proto: protocols.P1FullPage,
		paper: map[string]string{
			"wall": "128 s", "user": "10 s", "sys": "30 s",
			"net": "66 kB/s", "ctx": "4 /add", "space": "1 page",
			"lat": "120 ms", "losswin": "500",
		},
	},
	{
		title: "Figure 5: second user protocol — spin on short page",
		proto: protocols.P2ShortPage,
		paper: map[string]string{
			"wall": "68 s", "user": "3 s", "sys": "17 s",
			"net": "2.2 kB/s", "ctx": "4 /add", "space": "1 page",
			"lat": "68 ms", "losswin": "134",
		},
	},
	{
		title: "Figure 6: third user protocol — spin on disjoint pages, one read-only",
		proto: protocols.P3DisjointRO,
		paper: map[string]string{
			"wall": "never finished", "user": "never finished", "sys": "never finished",
			"net": "n/a", "ctx": "n/a", "space": "2 pages",
			"lat": "very high", "losswin": "10000",
		},
	},
	{
		title: "Figure 7: third user protocol with hysteresis",
		proto: protocols.P3Hysteresis,
		paper: map[string]string{
			"wall": "77 s", "user": "19 s", "sys": "50 s",
			"net": "~1 kB/s", "ctx": "5 /add", "space": "2 pages",
			"lat": "45 ms", "losswin": "80",
		},
	},
	{
		title: "Figure 8: fourth user protocol — spin on short page, data driven",
		proto: protocols.P4DataDriven,
		paper: map[string]string{
			"wall": "68 s", "user": "7 s", "sys": "50 s",
			"net": "~1 kB/s", "ctx": "10 /add", "space": "1 page",
			"lat": "65 ms", "losswin": "400",
		},
	},
	{
		title: "Figure 9: final user protocol — spin on disjoint pages, one data driven",
		proto: protocols.P5Final,
		paper: map[string]string{
			"wall": "57 s", "user": "0.7 s", "sys": "6 s",
			"net": "0.5 kB/s", "ctx": "5 /add", "space": "2 pages",
			"lat": "20 ms", "losswin": "3",
		},
	},
}

func runBaselines(w *writer, target uint32) {
	w.section(fmt.Sprintf("Section 4 baselines (target %d)", target))
	single := mustRun(protocols.Config{Protocol: protocols.BaselineSingle, Target: target, Options: workload.Options{Seed: *flagSeed}}, nil)
	local := mustRun(protocols.Config{Protocol: protocols.BaselineLocalPair, Target: target, Options: workload.Options{Seed: *flagSeed}}, nil)
	s := scale(target)
	w.table(
		[]string{"baseline", "paper (1024)", "measured", "scaled to 1024"},
		[][]string{
			{"single process", "~50 ms", fmtDur(single.Wall), fmtDur(time.Duration(float64(single.Wall) * s))},
			{"two processes, one host (wall)", "81 s", fmtDur(local.Wall), fmtDur(time.Duration(float64(local.Wall) * s))},
			{"two processes, one host (cpu/proc)", "37 s", fmtDur((local.Host0.User + local.Host0.Sys) / 2), fmtDur(time.Duration(float64(local.Host0.User+local.Host0.Sys) * s / 2))},
		},
	)
}

func runFigures(w *writer, target uint32) {
	// The sweep engine owns the figure configurations (including the
	// Figure-6 loss injection and cap); this command only adds the
	// paper's published values alongside the measurements.
	for _, sc := range sweep.FigureScenarios(sweep.Options{Target: target, Seed: *flagSeed}) {
		f, ok := figSpecFor(sc.Protocol)
		if !ok {
			fmt.Fprintf(os.Stderr, "no paper values for %v\n", sc.Protocol)
			os.Exit(1)
		}
		r := mustRun(sc.CounterConfig())
		w.section(f.title)
		s := scale(target)
		rows := [][]string{
			{"Wallclock Time", f.paper["wall"], fmtWall(r, 1), fmtWallScaled(r, s)},
			{"User Time", f.paper["user"], fmtDur(r.Host0.User), fmtDur(time.Duration(float64(r.Host0.User) * s))},
			{"Sys Time", f.paper["sys"], fmtDur(r.Host0.System()), fmtDur(time.Duration(float64(r.Host0.System()) * s))},
			{"Network Load", f.paper["net"], fmt.Sprintf("%.1f kB/s", r.NetBytesPerSec/1000), fmt.Sprintf("%.1f kB/s", r.NetBytesPerSec/1000)},
			{"Context Switches", f.paper["ctx"], fmt.Sprintf("%.1f /add", r.CtxPerOp()), fmt.Sprintf("%.1f /add", r.CtxPerOp())},
			{"Space", f.paper["space"], fmt.Sprintf("%d page(s) (%d bytes)", sc.Protocol.Pages(), sc.Protocol.Pages()*mether.PageSize), ""},
			{"Average Latency", f.paper["lat"], fmtDur(r.LatMean), fmtDur(r.LatMean)},
			{"Losses/Wins", f.paper["losswin"], fmt.Sprintf("%.1f", r.LossWin()), fmt.Sprintf("%.1f", r.LossWin())},
		}
		w.table([]string{"metric", "paper", "measured", "scaled/rate"}, rows)
		if r.DNF {
			w.notef("run did not finish within the cap (additions reached: %d) — the paper's \"never finished\"", r.Ops)
		}
	}
}

func runHysteresisSweep(w *writer, target uint32) {
	w.section("Ablation: hysteresis period N (Figure 7 discussion)")
	headers := []string{"scenario", "wall", "loss/win", "packets", "sys", "user", "finished"}
	var rows [][]string
	for _, sc := range sweep.HysteresisSweep(sweep.Options{Target: target, Seed: *flagSeed}) {
		r := mustRun(sc.CounterConfig())
		rows = append(rows, []string{
			sc.Name, fmtDur(r.Wall), fmt.Sprintf("%.1f", r.LossWin()),
			fmt.Sprint(r.Packets), fmtDur(r.Host0.System()), fmtDur(r.Host0.User),
			fmt.Sprint(!r.DNF),
		})
	}
	w.table(headers, rows)
}

func runLossAblation(w *writer, target uint32) {
	w.section("Ablation: datagram loss vs. protocol liveness (reliability discussion, Section 3)")
	headers := []string{"scenario", "finished", "additions", "loss/win", "retries"}
	var rows [][]string
	for _, sc := range sweep.LossAblation(sweep.Options{Target: target, Seed: *flagSeed}) {
		r := mustRun(sc.CounterConfig())
		rows = append(rows, []string{
			sc.Name, fmt.Sprint(!r.DNF), fmt.Sprint(r.Ops),
			fmt.Sprintf("%.1f", r.LossWin()), fmt.Sprint(r.Retries),
		})
	}
	w.table(headers, rows)
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

func fmtWall(r workload.Report, s float64) string {
	if r.DNF {
		return fmt.Sprintf("DNF (capped, %d adds)", r.Ops)
	}
	return fmtDur(time.Duration(float64(r.Wall) * s))
}

func fmtWallScaled(r workload.Report, s float64) string {
	if r.DNF {
		return "DNF"
	}
	return fmtDur(time.Duration(float64(r.Wall) * s))
}
