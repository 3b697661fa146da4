// Command methersim runs one Mether counter experiment from flags and
// prints the measured figure rows. It is the quick exploration tool; the
// full paper-table harness is cmd/metherbench.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mether/internal/protocols"
	"mether/internal/workload"
)

func main() {
	var (
		proto  = flag.String("protocol", "all", "protocol to run: single, local, p1, p2, p3, p3h, p4, p5, all")
		target = flag.Uint("target", 1024, "counter target (paper: 1024)")
		capS   = flag.Duration("cap", 600*time.Second, "simulated time cap")
		hystN  = flag.Int("hysteresis", 100, "purge period for p3h")
		seed   = flag.Int64("seed", 1, "simulation seed")
		trace  = flag.Int("trace", 0, "print the first N decoded packets of each run")
		kernel = flag.Bool("kernel", false, "run the Mether server in the kernel (the paper's future work)")
	)
	flag.Parse()
	tgt, err := protocols.Target(*target)
	if err == nil {
		err = errors.Join(protocols.Positive("seed", *seed), protocols.Positive("hysteresis", *hystN), protocols.Positive("cap", *capS))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "methersim:", err)
		os.Exit(2)
	}

	byName := map[string]protocols.Protocol{
		"single": protocols.BaselineSingle,
		"local":  protocols.BaselineLocalPair,
		"p1":     protocols.P1FullPage,
		"p2":     protocols.P2ShortPage,
		"p3":     protocols.P3DisjointRO,
		"p3h":    protocols.P3Hysteresis,
		"p4":     protocols.P4DataDriven,
		"p5":     protocols.P5Final,
	}
	var list []protocols.Protocol
	if *proto == "all" {
		list = []protocols.Protocol{
			protocols.BaselineSingle, protocols.BaselineLocalPair,
			protocols.P1FullPage, protocols.P2ShortPage,
			protocols.P3DisjointRO, protocols.P3Hysteresis,
			protocols.P4DataDriven, protocols.P5Final,
		}
	} else {
		p, ok := byName[*proto]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
			os.Exit(2)
		}
		list = []protocols.Protocol{p}
	}

	for _, p := range list {
		start := time.Now()
		cfg := protocols.Config{
			Protocol:    p,
			Target:      tgt,
			HysteresisN: *hystN,
			TraceLimit:  *trace,
			Options:     workload.Options{Seed: *seed, Cap: *capS, KernelServer: *kernel},
		}
		wl, err := protocols.Counter(cfg)
		var r workload.Report
		if err == nil {
			r, err = cfg.Run(wl)
		}
		if err != nil {
			fmt.Printf("%-22s ERR %v\n", p, err)
			continue
		}
		fmt.Printf("%-22s dnf=%-5v adds=%-5d wall=%-12v user=%-10v sys=%-10v net=%-9.0fB/s pkts=%-6d ctx/add=%-5.1f lat=%-12v loss/win=%-9.1f [real %v]\n",
			p, r.DNF, r.Ops, r.Wall.Round(time.Millisecond), r.Host0.User.Round(time.Millisecond),
			r.Host0.System().Round(time.Millisecond), r.NetBytesPerSec, r.Net.Frames, r.CtxPerOp(),
			r.LatMean.Round(100*time.Microsecond), r.LossWin(), time.Since(start).Round(time.Millisecond))
		if r.Trace != nil {
			fmt.Print(r.Trace.String())
		}
	}
}
