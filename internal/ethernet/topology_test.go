package ethernet

import (
	"testing"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// countersOn attaches a counting NIC to every trunk of a topology.
func countersOn(t *Topology) []*int {
	got := make([]*int, t.Trunks())
	for i := 0; i < t.Trunks(); i++ {
		n := new(int)
		got[i] = n
		t.Bus(i).Attach("counter", func() { *n++ })
	}
	return got
}

func TestStarTopologyFloodsEveryTrunkOnce(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 4, DefaultParams(), TopologyConfig{Shape: Star})
	got := countersOn(topo)
	src := topo.Bus(2).Attach("src", nil)

	src.Send(Broadcast, []byte("hello"))
	k.Run()
	for i, n := range got {
		if *n != 1 {
			t.Errorf("trunk %d saw %d deliveries, want exactly 1 (loop-free star)", i, *n)
		}
	}
	// Trunk 2's frame crosses bridge 2-0 once, then bridges 0-1 and 0-3
	// fan it out: three forwards total.
	if f := topo.BridgeStats().Forwarded; f != 3 {
		t.Errorf("forwarded = %d, want 3", f)
	}
	k.Shutdown()
}

func TestLinearTopologyChainsEndToEnd(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 4, DefaultParams(), TopologyConfig{Shape: Linear, BridgeDelay: time.Millisecond})
	got := countersOn(topo)
	var lastAt time.Duration
	topo.Bus(3).Attach("far", func() { lastAt = k.Now() })
	src := topo.Bus(0).Attach("src", nil)

	src.Send(Broadcast, []byte("x"))
	k.Run()
	for i, n := range got {
		if *n != 1 {
			t.Errorf("trunk %d saw %d deliveries, want exactly 1 (loop-free chain)", i, *n)
		}
	}
	if lastAt < 3*time.Millisecond {
		t.Errorf("end-to-end delivery at %v should pay 3 bridge hops of 1ms", lastAt)
	}
	if f := topo.BridgeStats().Forwarded; f != 3 {
		t.Errorf("forwarded = %d, want 3 (once per chain bridge)", f)
	}
	k.Shutdown()
}

func TestTopologyStatsCountCrossTrunkFramesPerWire(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 2, DefaultParams(), TopologyConfig{})
	topo.Bus(1).Attach("rx", nil)
	src := topo.Bus(0).Attach("src", nil)

	src.Send(Broadcast, []byte("cross"))
	k.Run()
	// One logical broadcast occupies both wires: once sent on trunk 0,
	// once re-transmitted on trunk 1.
	if s := topo.Stats(); s.Frames != 2 {
		t.Errorf("aggregated frames = %d, want 2 (the frame crossed one bridge)", s.Frames)
	}
	k.Shutdown()
}

func TestBridgePortLossDropsAndCounts(t *testing.T) {
	k := sim.New(1)
	a, b := NewBus(k, DefaultParams()), NewBus(k, DefaultParams())
	br := NewBridge(k, a, b, time.Millisecond)
	br.SetPortLoss(0, 1) // everything toward B is lost
	src := a.Attach("src", nil)
	got := 0
	b.Attach("rx", func() { got++ })

	for i := 0; i < 5; i++ {
		src.Send(Broadcast, []byte("doomed"))
	}
	k.Run()
	if got != 0 {
		t.Errorf("lossy port delivered %d frames, want 0", got)
	}
	s := br.Stats()
	if s.PortDrops != 5 || s.Forwarded != 0 {
		t.Errorf("stats = %+v, want 5 port drops and 0 forwarded", s)
	}
	k.Shutdown()
}

func TestBridgePortLossDeterministicAcrossRuns(t *testing.T) {
	run := func() (BridgeStats, int) {
		k := sim.New(99)
		defer k.Shutdown()
		topo := NewTopology(k, 2, DefaultParams(), TopologyConfig{PortLoss: 0.3})
		got := 0
		topo.Bus(1).Attach("rx", func() { got++ })
		src := topo.Bus(0).Attach("src", nil)
		for i := 0; i < 64; i++ {
			src.Send(Broadcast, []byte{byte(i)})
		}
		k.Run()
		return topo.BridgeStats(), got
	}
	s1, g1 := run()
	s2, g2 := run()
	if s1 != s2 || g1 != g2 {
		t.Errorf("seeded port loss diverged: %+v/%d vs %+v/%d", s1, g1, s2, g2)
	}
	if s1.PortDrops == 0 || g1 == 0 {
		t.Errorf("PortLoss 0.3 over 64 frames should both drop and deliver (drops=%d delivered=%d)", s1.PortDrops, g1)
	}
	if s1.Forwarded+s1.PortDrops != 64 {
		t.Errorf("forwarded %d + drops %d != 64 sent", s1.Forwarded, s1.PortDrops)
	}
}

func TestBridgeOccupancyTracksStoreAndForwardQueue(t *testing.T) {
	k := sim.New(1)
	a, b := NewBus(k, DefaultParams()), NewBus(k, DefaultParams())
	br := NewBridge(k, a, b, 100*time.Millisecond) // long queue dwell
	src := a.Attach("src", nil)
	b.Attach("rx", nil)

	for i := 0; i < 4; i++ {
		src.Send(Broadcast, []byte("queued"))
	}
	k.Run()
	s := br.Stats()
	if s.MaxQueued < 2 {
		t.Errorf("MaxQueued = %d, want >= 2 (burst dwells in the 100ms store-and-forward)", s.MaxQueued)
	}
	if s.Queued != 0 {
		t.Errorf("Queued = %d after quiesce, want 0", s.Queued)
	}
	if s.Forwarded != 4 {
		t.Errorf("Forwarded = %d, want 4", s.Forwarded)
	}
	k.Shutdown()
}

// TestTopologyStatsSumTxSuppressed: a down NIC's swallowed sends must
// survive the topology-level aggregation, not just the per-bus stats —
// down-NIC debugging on a bridged world reads World.NetStats.
func TestTopologyStatsSumTxSuppressed(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 2, DefaultParams(), TopologyConfig{})
	n := topo.Bus(1).Attach("station", nil)
	n.SetDown(true)
	n.Send(Broadcast, []byte("swallowed"))
	k.Run()
	if got := topo.Bus(1).Stats().TxSuppressed; got != 1 {
		t.Errorf("trunk Stats().TxSuppressed = %d, want 1", got)
	}
	if got := topo.Stats().TxSuppressed; got != 1 {
		t.Errorf("Topology.Stats().TxSuppressed = %d, want 1", got)
	}
	k.Shutdown()
}

func TestShapeByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Shape
		ok   bool
	}{
		{"", Star, true},
		{"star", Star, true},
		{"linear", Linear, true},
		{"ring", 0, false},
	} {
		got, err := ShapeByName(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ShapeByName(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

// TestTopologyIsAMediumWithPlacement: ports attached through the
// Medium surface land on their placed trunk in attach order, a station
// attached after the placed ones (a tap) joins the backbone, and the
// pool and utilization readings sum over trunks.
func TestTopologyIsAMediumWithPlacement(t *testing.T) {
	k := sim.New(1)
	topo := NewTopology(k, 3, DefaultParams(), TopologyConfig{})
	topo.Place([]int{2, 0, 2, 1})
	var m medium.Medium = topo
	ports := make([]medium.Port, 5)
	for i := range ports {
		ports[i] = m.AttachPortWithRing("h", nil, 8)
	}
	// Ids are per trunk, after that trunk's bridge ports (star: trunk 0
	// carries two bridge ports, the others one each).
	for i, want := range []int{1, 2, 2, 1, 3} {
		if got := ports[i].ID(); got != want {
			t.Errorf("station %d has id %d on its trunk, want %d", i, got, want)
		}
	}
	if n := len(topo.Bus(2).nics); n != 3 {
		t.Errorf("trunk 2 holds %d NICs, want its bridge port and stations 0 and 2", n)
	}
	if tap := m.AttachPort("tap", nil); tap.RingCap() != DefaultParams().RxRing || len(topo.Bus(0).nics) != 5 {
		t.Errorf("unplaced station: ring %d, trunk 0 holds %d NICs; want the default ring on the backbone",
			tap.RingCap(), len(topo.Bus(0).nics))
	}

	ports[0].Send(Broadcast, []byte("x")) // trunk 2 -> 0 -> 1: three wires
	end := k.Run()
	if s := m.Stats(); s.Frames != 3 {
		t.Errorf("frames = %d, want one per trunk crossed", s.Frames)
	}
	var util float64
	for i := 0; i < 3; i++ {
		util += topo.Bus(i).Utilization(end)
	}
	if got := m.Utilization(end); got != util || got == 0 {
		t.Errorf("utilization %v, want the trunks' sum %v", got, util)
	}
	if alloc, _ := m.PoolStats(); alloc != 3 {
		t.Errorf("pool reports %d buffers, want one per trunk", alloc)
	}
}
