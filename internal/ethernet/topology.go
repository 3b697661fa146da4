// Multi-trunk topologies: the paper's Mether ran on "an Ethernet" that
// was really several trunks joined by store-and-forward bridges, and its
// host/network-load argument leans on that structure — broadcasts cross
// bridges late (and in environment-dependent order), so protocols that
// assume a single global broadcast medium quietly stop being what they
// claim. Topology builds N buses joined by Bridges in the two loop-free
// arrangements worth measuring: a star around a backbone trunk and a
// linear chain. Both are trees, so flooding is storm-free and every
// trunk pair has exactly one path.
package ethernet

import (
	"fmt"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// Shape selects how a multi-trunk topology arranges its bridges.
type Shape int

const (
	// Star joins every other trunk to trunk 0 (the backbone) with one
	// bridge each: any cross-trunk frame takes at most two hops.
	Star Shape = iota
	// Linear chains trunk i to trunk i+1: the worst case, where a frame
	// between the end trunks crosses every bridge.
	Linear
)

// String returns the shape mnemonic used in scenario names.
func (s Shape) String() string {
	switch s {
	case Star:
		return "star"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ShapeByName parses a shape mnemonic ("star", "linear"); empty selects
// Star.
func ShapeByName(name string) (Shape, error) {
	switch name {
	case "", "star":
		return Star, nil
	case "linear":
		return Linear, nil
	default:
		return 0, fmt.Errorf("ethernet: unknown topology shape %q (want star or linear)", name)
	}
}

// TopologyConfig parameterizes the bridges of a multi-trunk topology.
// The zero value gets a 1 ms store-and-forward delay and symmetric
// empty backlogs.
type TopologyConfig struct {
	// Shape arranges the trunks (default Star).
	Shape Shape
	// BridgeDelay is each bridge's store-and-forward delay (default 1 ms,
	// an era-plausible latency for a two-port Ethernet bridge).
	BridgeDelay time.Duration
	// BacklogDown and BacklogUp model asymmetric background traffic on
	// every bridge: frames crossing toward the lower-numbered trunk
	// (respectively higher) are additionally delayed by the given amount.
	BacklogDown time.Duration
	BacklogUp   time.Duration
}

func (tc TopologyConfig) withDefaults() TopologyConfig {
	if tc.BridgeDelay == 0 {
		tc.BridgeDelay = time.Millisecond
	}
	return tc
}

// Topology is a set of trunks (buses) joined by bridges into a loop-free
// tree. It is the Ethernet world's medium.Medium: a port attached
// through it lands on trunk 0, the backbone, which is where a tap
// should listen. A NIC for a specific trunk joins Bus(i).
type Topology struct {
	shape   Shape
	buses   []*Bus
	bridges []*Bridge
}

var _ medium.Medium = (*Topology)(nil)

// NewTopology builds trunks buses with the shared segment parameters p,
// joined per tc. trunks must be at least 1; a single trunk builds no
// bridges and behaves exactly like a lone NewBus segment.
func NewTopology(k *sim.Kernel, trunks int, p Params, tc TopologyConfig) *Topology {
	if trunks < 1 {
		panic(fmt.Sprintf("ethernet: topology needs at least 1 trunk, got %d", trunks))
	}
	tc = tc.withDefaults()
	t := &Topology{shape: tc.Shape}
	for i := 0; i < trunks; i++ {
		t.buses = append(t.buses, NewBus(k, p))
	}
	link := func(lo, hi int) {
		br := NewBridge(k, t.buses[lo], t.buses[hi], tc.BridgeDelay)
		br.SetBacklog(tc.BacklogDown, tc.BacklogUp)
		t.bridges = append(t.bridges, br)
	}
	// One bridge per trunk beyond the first; a single trunk builds none
	// (and never looks at the shape).
	for i := 1; i < trunks; i++ {
		switch tc.Shape {
		case Star:
			link(0, i)
		case Linear:
			link(i-1, i)
		default:
			panic(fmt.Sprintf("ethernet: unknown topology shape %d", tc.Shape))
		}
	}
	return t
}

// AttachPort adds a station on the backbone with the segment-default
// ring capacity.
func (t *Topology) AttachPort(name string, intr func()) medium.Port {
	return t.buses[0].AttachPort(name, intr)
}

// AttachPortWithRing adds a station on the backbone with an explicit
// receive-ring bound.
func (t *Topology) AttachPortWithRing(name string, intr func(), ringCap int) medium.Port {
	return t.buses[0].AttachPortWithRing(name, intr, ringCap)
}

// Bus returns trunk i's segment.
func (t *Topology) Bus(i int) *Bus { return t.buses[i] }

// Bridges returns the bridges in construction order (advanced use:
// per-bridge backlog overrides before a run).
func (t *Topology) Bridges() []*Bridge { return t.bridges }

// Hops returns the number of bridges a frame crosses between trunks a
// and b — the tree distance, used by nearest-first orderings (the
// redundant-fetch target selection prefers same-trunk replicas, then
// ever-farther ones). Both shapes are trees, so the path is unique.
func (t *Topology) Hops(a, b int) int {
	if a == b {
		return 0
	}
	switch t.shape {
	case Linear:
		if a > b {
			a, b = b, a
		}
		return b - a
	default: // Star: via the backbone unless one end is the backbone
		if a == 0 || b == 0 {
			return 1
		}
		return 2
	}
}

// Stats sums the segment counters over every trunk. A frame forwarded
// across k bridges is counted on each trunk it crosses — cross-trunk
// traffic really does occupy every wire it transits, which is exactly
// the redundancy-vs-load cost the topology axis measures.
func (t *Topology) Stats() medium.Stats {
	var s medium.Stats
	for _, b := range t.buses {
		s.Add(b.Stats())
	}
	return s
}

// PoolStats sums the trunks' payload-buffer pools: buffers ever
// allocated and buffers currently free.
func (t *Topology) PoolStats() (allocated, free int) {
	for _, b := range t.buses {
		a, f := b.PoolStats()
		allocated, free = allocated+a, free+f
	}
	return allocated, free
}

// MemFootprint sums the structural memory footprint of every trunk.
func (t *Topology) MemFootprint() uint64 {
	var b uint64
	for _, bus := range t.buses {
		b += bus.MemFootprint()
	}
	return b
}

// BridgeStats sums the bridge counters over every bridge.
func (t *Topology) BridgeStats() BridgeStats {
	var s BridgeStats
	for _, br := range t.bridges {
		s.add(br.Stats())
	}
	return s
}
