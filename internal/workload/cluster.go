package workload

import (
	"errors"
	"time"

	"mether"
	"mether/internal/core"
	"mether/internal/ethernet"
	"mether/internal/fault"
	"mether/internal/host"
)

// Options is everything about the cluster a run is built on — the axes
// every scenario kind shares. Each run config embeds it, and World is
// the only place it becomes a mether.Config, so an axis is declared
// once here and honoured by every kind. Zero values are the classic
// world: one shared 10 Mb/s Ethernet, user-level servers, the default
// driver cost model, no faults.
type Options struct {
	Seed int64
	// Cap bounds the simulated run (default 10 minutes); a run that has
	// not finished by then reports DNF.
	Cap time.Duration
	// HostParams overrides the workstation cost model when non-zero
	// (scheduler ablations; no sweep axis maps to it).
	HostParams host.Params

	// Medium selects the interconnect backend: mether.MediumEthernet
	// (also when empty) or mether.MediumFabric. LossRate and RingSlots
	// apply to whichever is selected, so an ethernet-vs-fabric
	// comparison varies the wire and nothing else.
	Medium   string
	LossRate float64
	// RingSlots, when positive, is the medium's receive ring bound
	// (zero = the model's 32 frames): every port's, bridge ports
	// included. The 1024-host tier scales it with fan-in (4×hosts); the
	// windowed tiers derive a small constant from the stationary fan-in
	// model — one sampler per owner plus reply and snoop slack — and the
	// reported ring high-water proves the bound out.
	RingSlots int

	// Trunks partitions the hosts across bridged Ethernet trunks (0/1 =
	// the classic single bus; incompatible with the fabric); TrunkShape
	// arranges them (star by default). BacklogUp and BacklogDown model
	// asymmetric background traffic on every bridge as extra forwarding
	// delay toward the higher- and lower-numbered trunk (see
	// ethernet.TopologyConfig).
	Trunks      int
	TrunkShape  ethernet.Shape
	BacklogUp   time.Duration
	BacklogDown time.Duration

	// KernelServer runs protocol processing at interrupt level (the
	// paper's proposed fix) instead of in the user-level server process.
	KernelServer bool
	// Redundancy is the redundant-fetch fan-out k for read faults (0/1 =
	// the classic owner-only protocol): each demand fetch also names the
	// k-1 nearest replicas, any of which may answer first — the
	// tail-latency-for-wire-bytes trade.
	Redundancy int
	// MinResidency overrides the driver's anti-thrash holdoff when
	// positive. At large host counts the default 10 ms window expires
	// while the grantee's client is still waiting behind its server's
	// broadcast-handling load, so ownership leaves before the update
	// happens and the page thrashes; cluster cells scale it with host
	// count.
	MinResidency time.Duration
	// RetryTimeout overrides the driver's demand-request retransmit
	// interval when positive (default 250 ms). Every retry costs every
	// host a receive, so the large tiers widen it to outlast the scaled
	// residency window or a saturated owner's drop window.
	RetryTimeout time.Duration
	// ClaimRetries arms orphaned-ownership recovery: after this many
	// consecutive unanswered demand retries a requester claims the page
	// itself (generation-bumped, broadcast, deterministically arbitrated).
	// Zero disables claiming — required in worlds whose schedule
	// partitions bridges, where a claim across the partition would mint a
	// second owner that the heal then exposes as split-brain.
	ClaimRetries int
	// LazyReplicas enables the driver's memory-lazy receive path
	// (core.Config.LazyReplicas): snooped broadcasts for pages a host
	// never touched are counted and skipped instead of materializing
	// per-page state. Only the windowed tiers set it — the classic warm
	// cells measure refresh effects on exactly those untouched replicas.
	LazyReplicas bool

	// WarmStart seeds resident replicas of every workload page on every
	// host before the run (see Segment.WarmReplicas): at the 1024-host
	// tier a cold start means every host demand-fetches every peer page
	// at attach, an O(hosts³) request storm that swamps the workload.
	WarmStart bool
	// Faults is the deterministic fault schedule to execute during the
	// run (empty = healthy world, provably identical to a schedule-free
	// run): host crashes and recoveries and bridge partitions, all fired
	// at virtual times under the seeded kernel.
	Faults fault.Schedule
}

// World turns the options into the world a run executes in, ready to
// spawn processes on: a validated mether.Config, the world, the
// segments layout creates on it, warm replicas under WarmStart, and
// the fault schedule installed. A configuration that cannot be built
// (fabric with trunks, unknown medium, more trunks than hosts, a fault
// naming a host the world lacks, a negative count or duration) is an
// error, never a panic. The caller shuts the returned world down.
func (o Options) World(hosts, pages int, layout func(*mether.World) error) (*mether.World, error) {
	// Zero is the default; a negative value would run the default too,
	// or, for a backlog, forward faster than the bridge's own delay.
	if err := errors.Join(NonNegative("Cap", o.Cap),
		NonNegative("RingSlots", o.RingSlots), NonNegative("BacklogUp", o.BacklogUp),
		NonNegative("BacklogDown", o.BacklogDown), NonNegative("Redundancy", o.Redundancy),
		NonNegative("MinResidency", o.MinResidency), NonNegative("RetryTimeout", o.RetryTimeout),
		NonNegative("ClaimRetries", o.ClaimRetries)); err != nil {
		return nil, err
	}
	np := mether.DefaultEthernetParams()
	fp := mether.DefaultFabricParams()
	np.LossRate, fp.LossRate = o.LossRate, o.LossRate
	if o.RingSlots > 0 {
		np.RxRing, fp.RxRing = o.RingSlots, o.RingSlots
	}
	cc := core.DefaultConfig(pages)
	cc.KernelServer = o.KernelServer
	cc.Redundancy = o.Redundancy
	cc.ClaimRetries = o.ClaimRetries
	cc.LazyReplicas = o.LazyReplicas
	if o.MinResidency > 0 {
		cc.MinResidency = o.MinResidency
	}
	if o.RetryTimeout > 0 {
		cc.RetryTimeout = o.RetryTimeout
	}
	cfg := mether.Config{
		Hosts: hosts, Pages: pages, Seed: o.Seed,
		HostParams: o.HostParams, Core: cc, Trunks: o.Trunks,
		Medium: mether.MediumConfig{
			Kind: o.Medium, Ethernet: np, Fabric: fp,
			Topology: ethernet.TopologyConfig{
				Shape: o.TrunkShape, BacklogUp: o.BacklogUp, BacklogDown: o.BacklogDown,
			},
		},
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := mether.NewWorld(cfg)
	err := layout(w)
	if err == nil {
		if o.WarmStart {
			w.WarmReplicas()
		}
		err = w.InjectFaults(o.Faults)
	}
	if err != nil {
		w.Shutdown()
		return nil, err
	}
	return w, nil
}

// ownedPages is the layout of the stationary-owner kinds (barrier,
// stationary): one segment of one page per host, each owned by its host,
// its capability left in *capRW. It returns the world's page count too.
func ownedPages(name string, hosts int, capRW *mether.Capability) (int, func(*mether.World) error) {
	return max(hosts, 8), func(w *mether.World) error {
		owners := make([]int, hosts)
		for i := range owners {
			owners[i] = i
		}
		seg, err := w.CreateSegmentOwners(name, owners)
		if err == nil {
			*capRW = seg.CapRW()
		}
		return err
	}
}

// RunCap returns the run's virtual-time bound: Cap, or its default.
func (o Options) RunCap() time.Duration {
	if o.Cap == 0 {
		return 10 * time.Minute
	}
	return o.Cap
}
