package ethernet

import (
	"fmt"
	"testing"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// countersOn attaches a NIC counting its interrupts to every trunk.
func countersOn(t *Topology) (got []int) {
	got = make([]int, len(t.buses))
	for i := range got {
		i := i
		t.Bus(i).AttachPort("counter", func() { got[i]++ })
	}
	return got
}

func TestStarTopologyFloodsEveryTrunkOnce(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 4, DefaultParams(), TopologyConfig{Shape: Star})
	got := countersOn(topo)
	topo.Bus(2).AttachPort("src", nil).Send(medium.Broadcast, []byte("hello"))
	k.Run()
	// Across bridge 2-0 once, then 0-1 and 0-3.
	want(t, "deliveries per trunk, forwards", fmt.Sprint(got, topo.BridgeStats().Forwarded), "[1 1 1 1] 3")
}

func TestLinearTopologyChainsEndToEnd(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 4, DefaultParams(), TopologyConfig{Shape: Linear, BridgeDelay: time.Millisecond})
	got := countersOn(topo)
	var lastAt time.Duration
	topo.Bus(3).AttachPort("far", func() { lastAt = k.Now() })
	topo.Bus(0).AttachPort("src", nil).Send(medium.Broadcast, []byte("x"))
	k.Run()
	want(t, "deliveries per trunk, forwards, three 1ms hops paid", fmt.Sprint(got, topo.BridgeStats().Forwarded, lastAt >= 3*time.Millisecond), "[1 1 1 1] 3 true")
}

// One logical broadcast occupies both wires it crosses.
func TestTopologyStatsCountCrossTrunkFramesPerWire(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 2, DefaultParams(), TopologyConfig{})
	topo.Bus(1).AttachPort("rx", nil)
	topo.Bus(0).AttachPort("src", nil).Send(medium.Broadcast, []byte("cross"))
	k.Run()
	want(t, "frames", topo.Stats().Frames, 2)
}

func TestBridgeOccupancyTracksStoreAndForwardQueue(t *testing.T) {
	k, a, b, br := bridged(100 * time.Millisecond) // a long dwell
	src := a.AttachPort("src", nil)
	b.AttachPort("rx", nil)
	for i := 0; i < 4; i++ {
		src.Send(medium.Broadcast, []byte("queued"))
	}
	k.Run()
	s := br.Stats()
	want(t, "max queued >= 2, queued, forwarded", fmt.Sprint(s.MaxQueued >= 2, s.Queued, s.Forwarded), "true 0 4")
}

// A down NIC's swallowed sends survive the topology's fold, which
// World.NetStats reads.
func TestTopologyStatsSumTxSuppressed(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 2, DefaultParams(), TopologyConfig{})
	n := topo.Bus(1).AttachPort("station", nil)
	n.SetDown(true)
	n.Send(medium.Broadcast, []byte("swallowed"))
	k.Run()
	want(t, "suppressed on the trunk, in the topology", fmt.Sprint(topo.Bus(1).Stats().TxSuppressed, topo.Stats().TxSuppressed), "1 1")
}

func TestShapeByName(t *testing.T) {
	for name, w := range map[string]string{"": "star", "star": "star", "linear": "linear", "ring": "error"} {
		got, err := ShapeByName(name)
		s := got.String()
		if err != nil {
			s = "error"
		}
		want(t, fmt.Sprintf("ShapeByName(%q)", name), s, w)
	}
}

// Ports attached through a trunk's Bus land on that trunk, stations
// attached through the Medium surface (a host, a tap) join the backbone,
// and pool and busy time sum over trunks.
func TestTopologyIsAMediumWithPlacement(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 3, DefaultParams(), TopologyConfig{})
	var m medium.Medium = topo
	var ids []int
	var ports []medium.Port
	for i, trunk := range []int{2, 0, 2, 1} {
		ports = append(ports, topo.Bus(trunk).AttachPortWithRing("h", nil, 8))
		ids = append(ids, ports[i].ID())
	}
	ports = append(ports, m.AttachPortWithRing("h", nil, 8))
	ids = append(ids, ports[4].ID())
	tap := m.AttachPort("tap", nil)
	// Ids follow each trunk's bridge ports: two on the star's backbone,
	// one on the others.
	want(t, "ids, NICs on trunks 2 and 0, tap ring", fmt.Sprint(ids, len(topo.Bus(2).nics), len(topo.Bus(0).nics), tap.RingCap()), "[1 2 2 1 3] 3 5 32")
	ports[0].Send(medium.Broadcast, []byte("x")) // trunk 2 -> 0 -> 1: three wires
	k.Run()
	var busy time.Duration
	for i := 0; i < 3; i++ {
		busy += topo.Bus(i).Stats().BusyTime
	}
	alloc, _ := m.PoolStats()
	want(t, "frames, summed busy time, buffers", fmt.Sprint(m.Stats().Frames, m.Stats().BusyTime == busy && busy > 0, alloc), "3 true 3")
}

// A port's id is its address on its own trunk, after the trunk's bridge
// NIC: hosts on two trunks share ids, and a unicast stays on the
// sender's trunk.
func TestTopologyPortIDsArePerTrunk(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 2, DefaultParams(), TopologyConfig{})
	var ports []medium.Port
	for _, trunk := range []int{0, 0, 1, 1} {
		ports = append(ports, topo.Bus(trunk).AttachPort("h", nil))
	}
	ports[0].Send(2, []byte("u"))
	k.Run()
	var ids, pending []int
	for _, p := range ports {
		ids, pending = append(ids, p.ID()), append(pending, p.Pending())
	}
	want(t, "ids, pending after host 0 sends to id 2", fmt.Sprint(ids, pending), "[1 2 1 2] [0 1 0 0]")
}
