package sweep

import (
	"fmt"
	"sort"
	"time"

	"mether/internal/fault"
	"mether/internal/proto"
	"mether/internal/protocols"
	"mether/internal/workload"
)

// Options scales a named grid. Zero values take the grid defaults.
type Options struct {
	// Target is the counter target for protocol scenarios (default 1024,
	// the paper's scale; smoke grids use their own smaller targets).
	Target uint32
	// Seed drives every scenario (default 1).
	Seed int64
	// Hosts restricts host-count grids (cluster) to one size; zero runs
	// every size. CI smoke uses Hosts=16 so the fast cell gates every
	// push while the 64/256 cells stay on demand.
	Hosts int
}

func (o Options) withDefaults() Options {
	if o.Target == 0 {
		o.Target = 1024
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// defaultClusterSizes are the cluster grid's rungs when Options.Hosts
// names none. The 1024-host tier (`make cluster-large`) and the windowed
// 4096/10000-host tier (`make cluster-xl`) are reached through
// Options.Hosts only, so `make cluster` and bench records stay
// comparable across PRs.
var defaultClusterSizes = []int{16, 64, 256}

// clusterSizes is the cluster grid's host-count axis under o.
func (o Options) clusterSizes() []int {
	if o.Hosts != 0 {
		return []int{o.Hosts}
	}
	return defaultClusterSizes
}

// validate holds the one axis rule: a cluster cell needs at least two
// hosts, and host ids must fit the wire format's 16-bit field.
func (o Options) validate() error {
	if o.Hosts != 0 && (o.Hosts < 2 || o.Hosts > proto.MaxHostID) {
		return fmt.Errorf("sweep: hosts %d out of range (0 or 2..%d)", o.Hosts, proto.MaxHostID)
	}
	return nil
}

// FigureScenarios returns the paper's Figure 4-9 configurations as
// sweep scenarios, in figure order. At Target 1024 the four figures
// with published agreement bands carry band checks.
func FigureScenarios(o Options) []Scenario {
	o = o.withDefaults()
	figCap := 240 * time.Second
	return []Scenario{
		{Name: "fig4-full-page", Kind: KindCounter, Protocol: protocols.P1FullPage,
			Target: o.Target, Seed: o.Seed, Figure: "Figure 4 (full page)"},
		{Name: "fig5-short-page", Kind: KindCounter, Protocol: protocols.P2ShortPage,
			Target: o.Target, Seed: o.Seed, Figure: "Figure 5 (short page)"},
		// The paper killed the Figure 6 run; with era datagram loss the
		// passive spin protocol genuinely never finishes, so it runs
		// against a cap.
		{Name: "fig6-disjoint-ro", Kind: KindCounter, Protocol: protocols.P3DisjointRO,
			Target: o.Target, Seed: o.Seed, LossRate: 0.002, Cap: figCap, MayDNF: true},
		{Name: "fig7-hysteresis", Kind: KindCounter, Protocol: protocols.P3Hysteresis,
			Target: o.Target, Seed: o.Seed, HysteresisN: 100},
		{Name: "fig8-data-driven", Kind: KindCounter, Protocol: protocols.P4DataDriven,
			Target: o.Target, Seed: o.Seed, Figure: "Figure 8 (data driven, one page)"},
		{Name: "fig9-final", Kind: KindCounter, Protocol: protocols.P5Final,
			Target: o.Target, Seed: o.Seed, Figure: "Figure 9 (final protocol)"},
	}
}

// KernelAblation crosses the paper's two good protocols with the
// user-level vs in-kernel server placement (the paper's proposed fix).
func KernelAblation(o Options) []Scenario {
	o = o.withDefaults()
	var out []Scenario
	for _, p := range []protocols.Protocol{protocols.P2ShortPage, protocols.P5Final} {
		base := Scenario{Name: fmt.Sprintf("kernel/%v", p), Kind: KindCounter,
			Protocol: p, Target: o.Target, Seed: o.Seed}
		out = append(out, base.variant("/user"), base.variant("/kernel", inKernel))
	}
	return out
}

// LossAblation crosses protocols with datagram loss rates: the
// reliability discussion (the passive Figure-6 protocol has no recovery
// path; hysteresis and demand protocols do).
func LossAblation(o Options) []Scenario {
	o = o.withDefaults()
	cap := 240 * time.Second
	var out []Scenario
	for _, tc := range []struct {
		p    protocols.Protocol
		loss float64
	}{
		{protocols.P3DisjointRO, 0},
		{protocols.P3DisjointRO, 0.002},
		{protocols.P3Hysteresis, 0.002},
		{protocols.P2ShortPage, 0.002},
		{protocols.P5Final, 0.002},
	} {
		out = append(out, Scenario{
			Name: fmt.Sprintf("loss/%v/%.1f%%", tc.p, tc.loss*100), Kind: KindCounter,
			Protocol: tc.p, Target: o.Target, Seed: o.Seed,
			HysteresisN: 100, LossRate: tc.loss, Cap: cap,
			// The passive paths have no recovery: P3-disjoint-ro trusts
			// snoopy refresh outright, and P5's data-driven block never
			// retransmits — one lost release broadcast under loss can
			// strand both waiters. Whether these finish under loss is
			// the measurement (the paper's reliability discussion).
			MayDNF: tc.loss > 0 && (tc.p == protocols.P3DisjointRO || tc.p == protocols.P5Final),
		})
	}
	return out
}

// HysteresisSweep sweeps the Figure-7 purge period — including the
// boundary cells N=1 (purge on every loss, the flood variant) and
// N=10000 (nearly no recovery) — plus the paper's rejected sleep-based
// fix. The extreme cells run against a cap; whether they finish is part
// of the measurement.
func HysteresisSweep(o Options) []Scenario {
	o = o.withDefaults()
	cap := 300 * time.Second
	var out []Scenario
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		out = append(out, Scenario{
			Name: fmt.Sprintf("hysteresis/N=%d", n), Kind: KindCounter,
			Protocol: protocols.P3Hysteresis, Target: o.Target, Seed: o.Seed,
			HysteresisN: n, Cap: cap,
			// Only the boundary cells are "whether it finishes is the
			// measurement" runs; a mid-range cell hitting its cap is
			// exactly the correctness drift the DNF gate must catch.
			MayDNF: n == 1 || n == 10000,
		})
	}
	out = append(out, Scenario{
		Name: "hysteresis/sleep-5ms", Kind: KindCounter,
		Protocol: protocols.P3Hysteresis, Target: o.Target, Seed: o.Seed,
		SleepHyst: 5 * time.Millisecond, Cap: cap,
	})
	return out
}

// HotspotGrid crosses cluster size with the page-mode axis on the
// hot-page contention workload.
func HotspotGrid(o Options) []Scenario {
	o = o.withDefaults()
	var out []Scenario
	for _, hosts := range []int{2, 4, 8} {
		base := Scenario{Name: fmt.Sprintf("hotspot/h%d", hosts), Kind: KindHotspot,
			Hosts: hosts, Iters: 32, Seed: o.Seed}
		out = append(out, base.variant("/short", func(s *Scenario) { s.ShortPage = true }), base.variant("/full"))
	}
	return out
}

// BarrierGrid scales the bulk-synchronous barrier workload in host
// count, with one lossy cell.
func BarrierGrid(o Options) []Scenario {
	o = o.withDefaults()
	var out []Scenario
	cell := func(hosts int) Scenario {
		return Scenario{Name: fmt.Sprintf("barrier/h%d", hosts), Kind: KindBarrier,
			Hosts: hosts, Phases: 8, Seed: o.Seed}
	}
	for _, hosts := range []int{2, 4, 8} {
		out = append(out, cell(hosts))
	}
	return append(out, cell(4).variant("/loss-0.2%", lossy))
}

// PipelineGrid crosses chain depth with the message-size axis on the
// producer-consumer pipeline.
func PipelineGrid(o Options) []Scenario {
	o = o.withDefaults()
	var out []Scenario
	for _, stages := range []int{2, 3, 4} {
		for _, size := range []int{8, 2048} {
			out = append(out, Scenario{
				Name: fmt.Sprintf("pipeline/s%d/%dB", stages, size), Kind: KindPipeline,
				Stages: stages, Messages: 16, MsgSize: size, Seed: o.Seed,
			})
		}
	}
	return out
}

// PipeMixGrid runs the single-pipe throughput workload across the
// paper's message mixes, with and without datagram loss.
func PipeMixGrid(o Options) []Scenario {
	o = o.withDefaults()
	dists := []workload.SizeDist{
		workload.Fixed{Size: 8},
		workload.Fixed{Size: 7000},
		workload.Bimodal{Small: 8, Large: 7000, LargeEvery: 8},
	}
	var out []Scenario
	for _, d := range dists {
		out = append(out, Scenario{
			Name: "pipes/" + d.Name(), Kind: KindPipe,
			Dist: d, Messages: 24, Seed: o.Seed,
		})
	}
	return out
}

// FanoutGrid crosses broadcast vs demand reader refresh with reader
// count (the paper's cache-invalidate scaling argument).
func FanoutGrid(o Options) []Scenario {
	o = o.withDefaults()
	var out []Scenario
	for _, mode := range []protocols.FanoutMode{protocols.FanoutDataDriven, protocols.FanoutDemand} {
		for _, readers := range []int{2, 8} {
			out = append(out, Scenario{
				Name: fmt.Sprintf("fanout/%v/r%d", mode, readers), Kind: KindFanout,
				FanoutMode: mode, Readers: readers, Updates: 16, Seed: o.Seed,
			})
		}
	}
	return out
}

// clusterRung returns a cluster size's three base cells — the
// stationary-owner counter, barrier phases and hotspot contention — and
// is the one place a host count becomes knobs; every other cell of the
// rung is a variant of one of the three and inherits them.
//
// The calibration argument: work per host shrinks as the cluster grows
// so every cell stays tractable and totals stay comparable across
// cells; what the grid measures is how load and latency scale with
// fan-out, not raw op counts. Barrier waiters at scale must ride snoopy
// refreshes rather than purge-flood the wire, so the purge hysteresis
// grows with the host count (see Scenario.HysteresisN reuse). The
// hotspot anti-thrash residency scales with fan-out: every grant
// broadcast costs each receiving server per-byte handling time, and the
// grantee's client must outlive that backlog.
//
// The 1024-host tier scales the knobs that would otherwise swamp the
// simulation with redundant events, the same way the smaller rungs
// scale residency and hysteresis: the hotspot demand retry must outlast
// the residency window (deferred requests are served without retries
// when nothing is lost), barrier waiters must not poll faster than the
// arrival-broadcast backlog can drain, worlds start with warm resident
// replicas (a cold attach is an O(hosts³) request storm that would be
// the entire measurement), and the hotspot bounds its active writer set
// — every broadcast still fans out to all 1024 hosts, which is the load
// being measured. The rx ring widens to 4×hosts: a phase burst is one
// broadcast per host arriving at wire speed and draining at server
// speed, and the era 32-slot ring would drop nearly all of it. (The
// bound reaches the bridge ports too, but a bridge empties its ring
// inside the receive interrupt, so there it never binds: a cross-trunk
// burst queues in the store-and-forward records instead.)
func clusterRung(h int, seed int64) (stationary, barrier, hotspot Scenario) {
	iters, phases := 16, 4
	switch {
	case h >= 1024:
		iters, phases = 1, 1
	case h >= 256:
		iters, phases = 4, 1
	case h >= 64:
		iters, phases = 8, 2
	}
	res := time.Duration(h) * 500 * time.Microsecond
	if res < 10*time.Millisecond {
		res = 10 * time.Millisecond
	}
	cell := func(kind Kind) Scenario {
		return Scenario{Name: fmt.Sprintf("cluster/%s/h%d", kind, h), Kind: kind, Hosts: h, Seed: seed}
	}
	stationary, barrier, hotspot = cell(KindStationary), cell(KindBarrier), cell(KindHotspot)
	stationary.Iters = iters * 2
	barrier.Phases, barrier.HysteresisN = phases, 16*h
	hotspot.Iters, hotspot.MinResidency = iters, res
	if h >= 1024 {
		for _, s := range []*Scenario{&stationary, &barrier, &hotspot} {
			s.WarmStart, s.RingSlots = true, 4*h
		}
		barrier.CheckEvery = time.Duration(h) * 2 * time.Microsecond
		hotspot.Iters, hotspot.Writers = 4, 64
		hotspot.RetryTimeout = time.Duration(h) * 2 * time.Millisecond
	}
	return stationary, barrier, hotspot
}

// windowedStationary is the ≥ 4096-host recipe. Past ~4k hosts only the
// stationary workload's linear wire load stays tractable, and only with
// the flyweight knobs stacked: windowed working-set attach, lazy replica
// materialization, warm seeding, a staggered start so the first purges
// don't collide at t=0, and rx rings sized from the real fan-in (one
// sampler per owner plus reply and snoop slack — 64 slots, not 4×hosts).
// The 500 ms retry lets a sample request dropped in a saturated owner's
// ring retry after the burst drains rather than the h-scaled formula's
// 20 s wait.
func windowedStationary(name string, hosts, iters int, seed int64) Scenario {
	return Scenario{Name: name, Kind: KindStationary, Hosts: hosts, Iters: iters, Seed: seed,
		WarmStart: true, Windowed: true, Lazy: true, Stagger: 200 * time.Microsecond,
		RingSlots: 64, RetryTimeout: 500 * time.Millisecond}
}

// variant derives a cell from s: the name gains suffix and each mod
// edits the copy, so a variant keeps every knob of its rung's base cell.
func (s Scenario) variant(suffix string, mods ...func(*Scenario)) Scenario {
	s.Name += suffix
	for _, mod := range mods {
		mod(&s)
	}
	return s
}

// The axes a cluster variant moves along.
func lossy(s *Scenario)    { s.LossRate = 0.002 }
func inKernel(s *Scenario) { s.KernelServer = true }
func onFabric(s *Scenario) { s.Medium = "fabric" }

// farOwner homes the hotspot segment on trunk 1, so trunk 0's writers
// steal it across the bridge first and every grant pays the hop.
func farOwner(s *Scenario) { s.OwnerTrunk = 1 }

func trunks(n int) func(*Scenario)     { return func(s *Scenario) { s.Trunks = n } }
func redundancy(k int) func(*Scenario) { return func(s *Scenario) { s.Redundancy = k } }

// ClusterGrid scales the three cluster workloads — hotspot contention
// (worst case: one page bouncing between every host), barrier phases
// (all-to-all synchronization) and the stationary-owner counter (the
// paper's P5 discipline, the linear-load baseline) — to 16, 64 and 256
// hosts by default; clusterRung holds the per-size calibration. At 256
// hosts and beyond the grid adds the loss-rate and kernel-server axes:
// datagram loss tests the retry path at scale (on the broadcast-bound
// barrier and hotspot kinds as well as the linear stationary baseline),
// and interrupt-level protocol processing (the paper's proposed fix) is
// exactly the placement whose payoff grows with broadcast fan-in. At 64
// and 256 hosts the grid adds the topology axis: 2-trunk star, 4-trunk
// star and 4-trunk linear-chain cells split the cluster across bridged
// Ethernet trunks (the paper's real network), and the 2-trunk hotspot
// cell additionally homes the hot segment on the far trunk.
// Options.Hosts restricts the grid to one size: the CI smoke cell runs
// -hosts 16, and `make cluster-large` runs the 1024-host tier via -hosts
// 1024. At 64 and 256 hosts the grid also adds the medium axis: the /fab
// cells rerun the three base workloads over the point-to-point fabric,
// where broadcast is a sender-paid unicast fan-out.
func ClusterGrid(o Options) []Scenario {
	o = o.withDefaults()
	var out []Scenario
	for _, h := range o.clusterSizes() {
		// The 4096/10000-host windowed tier: Iters=4 gives each host one
		// forced neighbour sample (n%sampleEvery==sampleEvery-1 at n=3).
		if h >= 4096 {
			out = append(out, windowedStationary(fmt.Sprintf("cluster/stationary/h%d", h), h, 4, o.Seed))
			continue
		}
		st, ba, hot := clusterRung(h, o.Seed)
		out = append(out, st, ba, hot)
		if h >= 256 {
			out = append(out,
				st.variant("/loss-0.2%", lossy),
				st.variant("/kernel", inKernel),
				hot.variant("/kernel", inKernel))
		}
		// The fault-injection cells. Crash-owner kills one stationary
		// owner mid-run and recovers it 4 s later: its page is orphaned
		// until the recovered host's own demand retries go unanswered
		// ClaimRetries times and it re-claims (generation-bumped,
		// broadcast-arbitrated); the cell must end with zero orphans.
		// Partition-heal splits the 2-trunk hotspot's bridge for 5 s
		// mid-contention: far-trunk steals retry across the outage and
		// drain after the heal — ClaimRetries stays 0, since a claim
		// across a partition would mint a second owner. Churn (at the
		// 1024-host rung) crashes a random 1% of hosts per round.
		if h == 256 {
			out = append(out,
				// ClaimRetries is calibrated above the healthy cell's
				// longest consecutive-retry streak (the h256 broadcast
				// backlog can stall a live owner's answer past 1 s), so
				// the only claim fired is the recovered host re-claiming
				// its own orphaned page.
				st.variant("/crash-owner", func(s *Scenario) { s.Faults, s.ClaimRetries = "crash@8s:h17;recover@12s:h17", 8 }),
				hot.variant("/t2-star/partition-heal", trunks(2), farOwner,
					func(s *Scenario) { s.Faults = "partition@20s:b0;heal@25s:b0" }))
		}
		if h >= 1024 {
			// 1% of hosts crash per round, three rounds, each victim down
			// 200 ms. Iters is raised above the tier's 2 so every client
			// is still mid-run through the churn window — a finished
			// client would leave its crashed page orphaned with no demand
			// traffic left to trigger a re-claim.
			churn := fault.Churn(o.Seed, h, 0.01, time.Second, 1500*time.Millisecond, 200*time.Millisecond, 3)
			out = append(out, st.variant("/churn-1%",
				func(s *Scenario) { s.Iters, s.Faults, s.ClaimRetries = 8, churn.String(), 8 }))
		}
		// The topology axis: split the 64- and 256-host clusters across
		// bridged trunks. The stationary cells measure the linear-load
		// baseline under both shapes (a 4-trunk linear chain is the worst
		// case: end-to-end frames cross every bridge); the barrier cell
		// makes every arrival broadcast pay the forwarding hop before its
		// cross-trunk waiters release; the hotspot cell additionally homes
		// the hot segment on the far trunk.
		if h == 64 || h == 256 {
			out = append(out,
				st.variant("/t2-star", trunks(2)),
				st.variant("/t4-linear", trunks(4), func(s *Scenario) { s.TrunkShape = "linear" }),
				ba.variant("/t2-star", trunks(2)),
				hot.variant("/t2-star", trunks(2), farOwner))
			// The medium axis: the three base workloads over the
			// point-to-point fabric, where every broadcast is a sender-paid
			// unicast fan-out, h-1 copies from the sender's own transmitter,
			// instead of one shared-wire transmission every station snoops.
			// The stationary cell measures the linear baseline's fan-out wire
			// cost, the barrier cell makes each arrival broadcast pay h-1
			// copies queued behind the sender's earlier sends, and the
			// hotspot cell puts the grant broadcasts — the paper's
			// invalidate traffic — on the per-port meter.
			out = append(out, st.variant("/fab", onFabric), ba.variant("/fab", onFabric), hot.variant("/fab", onFabric))
		}
		// The redundancy axis (k > 1 read faults ask the owner plus the
		// k-1 nearest replicas; first response wins) on the two cells
		// where a replica answer should pay. First the cross-trunk
		// stationary cell, where the border hosts' ring samples otherwise
		// wait out a bridge round trip the same-trunk replica skips.
		if h == 64 {
			out = append(out,
				st.variant("/t2-star/k2", trunks(2), redundancy(2)),
				st.variant("/t2-star/k3", trunks(2), redundancy(3)))
		}
		// The asymmetric-backlog cells drive Bridge.SetBacklog: the same
		// 2-trunk stationary split with 5 ms of background traffic queued
		// on one forwarding direction only — a congested uplink (toward
		// trunk 1) vs a roomy downlink, and the mirror image.
		if h == 64 {
			out = append(out,
				st.variant("/t2-star/backlog-up", trunks(2), func(s *Scenario) { s.BacklogUp = 5 * time.Millisecond }),
				st.variant("/t2-star/backlog-down", trunks(2), func(s *Scenario) { s.BacklogDown = 5 * time.Millisecond }))
		}
		// The 1024-host topology rung (make cluster-large): the tier that
		// used to be intractable when every frame cost an O(hosts)
		// receiver scan and every broadcast was parsed per receiver. The
		// rung's knobs extend to the ~ms bridge latencies at this fan-in,
		// and the hotspot sits behind the far-trunk owner placement so
		// every steal and every grant pays the bridge hop being measured.
		if h >= 1024 {
			out = append(out,
				st.variant("/t2-star", trunks(2)),
				hot.variant("/t4-star", trunks(4), farOwner))
		}
		if h == 256 {
			out = append(out,
				st.variant("/t4-star", trunks(4)),
				// The loss axis on the broadcast-bound kinds: the
				// stationary baseline had a loss cell from PR 2; these
				// stress the retry/hysteresis recovery paths where every
				// op is a cluster-wide broadcast.
				ba.variant("/loss-0.2%", lossy),
				hot.variant("/loss-0.2%", lossy),
				// The redundancy axis crossed with loss: when the owner's
				// answer is the datagram that got dropped, any replica's copy
				// beats the 250 ms demand retry — the tail-latency cells.
				st.variant("/loss-0.2%/k2", lossy, redundancy(2)),
				st.variant("/loss-0.2%/k3", lossy, redundancy(3)))
		}
	}
	return out
}

// SmokeGrid is the fast cross-section used by CI: one small scenario of
// every kind plus both server placements, finishing in seconds.
func SmokeGrid(o Options) []Scenario {
	o = o.withDefaults()
	return []Scenario{
		{Name: "smoke/counter-short", Kind: KindCounter, Protocol: protocols.P2ShortPage,
			Target: 64, Seed: o.Seed},
		{Name: "smoke/counter-final", Kind: KindCounter, Protocol: protocols.P5Final,
			Target: 64, Seed: o.Seed},
		{Name: "smoke/counter-final-kernel", Kind: KindCounter, Protocol: protocols.P5Final,
			Target: 64, Seed: o.Seed, KernelServer: true},
		{Name: "smoke/fanout-dd", Kind: KindFanout, FanoutMode: protocols.FanoutDataDriven,
			Readers: 2, Updates: 8, Seed: o.Seed},
		{Name: "smoke/pipes-control", Kind: KindPipe, Dist: workload.Fixed{Size: 8},
			Messages: 12, Seed: o.Seed},
		{Name: "smoke/hotspot", Kind: KindHotspot, Hosts: 2, Iters: 8, ShortPage: true, Seed: o.Seed},
		{Name: "smoke/barrier", Kind: KindBarrier, Hosts: 2, Phases: 4, Seed: o.Seed},
		{Name: "smoke/pipeline", Kind: KindPipeline, Stages: 3, Messages: 8, MsgSize: 8, Seed: o.Seed},
		{Name: "smoke/stationary-t2", Kind: KindStationary, Hosts: 4, Iters: 8, Trunks: 2, Seed: o.Seed},
		// The fabric smoke cell: the stationary workload over the
		// point-to-point fabric medium, proving the Medium seam (per-port
		// FIFO serialization, sender-paid broadcast fan-out, transmit-queue
		// accounting) builds and runs on every push.
		{Name: "smoke/stationary-fab", Kind: KindStationary, Hosts: 4, Iters: 8,
			Medium: "fabric", Seed: o.Seed},
		{Name: "smoke/stationary-t2-k3", Kind: KindStationary, Hosts: 4, Iters: 8, Trunks: 2,
			Redundancy: 3, Seed: o.Seed},
		// The windowed-tier smoke cell: the cluster grid's 4096-host
		// flyweight configuration at Iters=1 (updates and purges, no
		// forced samples), proving the sharded-directory + lazy-replica +
		// windowed-attach path builds and runs a 4096-host world on every
		// push. Same knobs as the cluster-xl tier, minus the work.
		windowedStationary("smoke/stationary-h4096", 4096, 1, o.Seed),
		// The fault-plane smoke cell: crash one stationary owner early,
		// recover it 1 ms later, and require the orphaned page to be
		// re-claimed (the orphan gate) on every push. Small enough
		// that the claim retries dominate the virtual wall — the real
		// cost stays milliseconds.
		{Name: "smoke/stationary-crash-owner", Kind: KindStationary, Hosts: 4, Iters: 8,
			Faults: "crash@1ms:h1;recover@2ms:h1", ClaimRetries: 2, Seed: o.Seed},
	}
}

// union is the grid that runs each of the given grids in turn.
func union(builders ...func(Options) []Scenario) func(Options) []Scenario {
	return func(o Options) []Scenario {
		var out []Scenario
		for _, build := range builders {
			out = append(out, build(o)...)
		}
		return out
	}
}

var (
	ablation  = union(KernelAblation, LossAblation, HysteresisSweep)
	paper     = union(FigureScenarios, ablation, FanoutGrid)
	workloads = union(HotspotGrid, BarrierGrid, PipelineGrid, PipeMixGrid)
)

// grids maps every named grid to its builder.
var grids = map[string]func(Options) []Scenario{
	"figures":    FigureScenarios,
	"kernel":     KernelAblation,
	"loss":       LossAblation,
	"hysteresis": HysteresisSweep,
	"hotspot":    HotspotGrid,
	"barrier":    BarrierGrid,
	"pipeline":   PipelineGrid,
	"pipes":      PipeMixGrid,
	"fanout":     FanoutGrid,
	"cluster":    ClusterGrid,
	"smoke":      SmokeGrid,
	"ablation":   ablation,
	"paper":      paper,
	"workloads":  workloads,
	"all":        union(paper, workloads),
}

// GridNames lists every named grid, sorted.
func GridNames() []string {
	names := make([]string, 0, len(grids))
	for n := range grids {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Grid builds a named grid. Unknown names list the alternatives, and an
// axis value no cell could run with is an error here — before any
// scenario runs — rather than a failed or panicking cell mid-sweep.
func Grid(name string, o Options) ([]Scenario, error) {
	build, ok := grids[name]
	if !ok {
		return nil, fmt.Errorf("sweep: unknown grid %q (have %v)", name, GridNames())
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return build(o), nil
}
