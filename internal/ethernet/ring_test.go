package ethernet

import (
	"testing"
	"time"

	"mether/internal/sim"
)

// The ring, drop, down-station and high-water contract is pinned once,
// on medium.Station (internal/medium/station_test.go); the cases here
// go end to end through the bus's own Send, bridge and pool.

// fill sends count minimal frames from tx and runs the kernel so they
// all arrive.
func fill(k *sim.Kernel, tx *NIC, count int) {
	for i := 0; i < count; i++ {
		tx.Send(Broadcast, []byte{byte(i)})
	}
	k.Run()
}

// TestRxRingDrainReopensRing proves the ring is circular, not one-shot:
// after an overrun, draining frames makes room again and wraparound
// preserves FIFO order.
func TestRxRingDrainReopensRing(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 3
	k := sim.New(1)
	bus := NewBus(k, p)
	rx := bus.Attach("rx", nil)
	tx := bus.Attach("tx", nil)

	fill(k, tx, 5) // 3 delivered, 2 dropped
	if rx.Drops() != 2 {
		t.Fatalf("drops = %d, want 2", rx.Drops())
	}
	// Drain two slots, then refill: the wrapped slots must accept frames.
	for i := 0; i < 2; i++ {
		f, ok := rx.Recv()
		if !ok {
			t.Fatal("ring underflow")
		}
		if f.Payload[0] != byte(i) {
			t.Errorf("frame %d payload = %d, want %d", i, f.Payload[0], i)
		}
		rx.Release(f)
	}
	fill(k, tx, 2)
	if got := rx.Pending(); got != 3 {
		t.Fatalf("ring holds %d after refill, want 3", got)
	}
	want := []byte{2, 0, 1} // frame 2 survived; the refill (0, 1) wrapped in
	for i, w := range want {
		f, ok := rx.Recv()
		if !ok {
			t.Fatal("ring underflow")
		}
		if f.Payload[0] != w {
			t.Errorf("frame %d payload = %d, want %d", i, f.Payload[0], w)
		}
		rx.Release(f)
	}
}

// TestReleasedBuffersAreRecycled proves the pooled data path reuses
// payload buffers once every receiver has released them, and that the
// recycled buffer carries the new payload (no aliasing of live frames).
func TestReleasedBuffersAreRecycled(t *testing.T) {
	p := DefaultParams()
	k := sim.New(1)
	bus := NewBus(k, p)
	rx := bus.Attach("rx", nil)
	tx := bus.Attach("tx", nil)

	tx.Send(rx.ID(), []byte{0xAA, 0xBB})
	k.Run()
	f1, ok := rx.Recv()
	if !ok {
		t.Fatal("frame not delivered")
	}
	first := &f1.Payload[0]
	rx.Release(f1)
	if _, free := bus.PoolStats(); free != 1 {
		t.Fatalf("pool holds %d buffers after release, want 1", free)
	}

	tx.Send(rx.ID(), []byte{0x11, 0x22})
	k.Run()
	f2, ok := rx.Recv()
	if !ok {
		t.Fatal("second frame not delivered")
	}
	if &f2.Payload[0] != first {
		t.Error("released buffer was not recycled for the next send")
	}
	if f2.Payload[0] != 0x11 || f2.Payload[1] != 0x22 {
		t.Errorf("recycled buffer carries stale bytes % x", f2.Payload)
	}
}

// TestBroadcastBufferSharedUntilAllRelease proves a broadcast's buffer
// is shared by every receiver and only returns to the pool when the
// last one releases it.
func TestBroadcastBufferSharedUntilAllRelease(t *testing.T) {
	p := DefaultParams()
	k := sim.New(1)
	bus := NewBus(k, p)
	a := bus.Attach("a", nil)
	b := bus.Attach("b", nil)
	tx := bus.Attach("tx", nil)

	tx.Send(Broadcast, []byte{7})
	k.Run()
	fa, _ := a.Recv()
	fb, _ := b.Recv()
	if &fa.Payload[0] != &fb.Payload[0] {
		t.Fatal("broadcast receivers should share one payload buffer")
	}
	a.Release(fa)
	if _, free := bus.PoolStats(); free != 0 {
		t.Fatal("buffer recycled while another receiver still holds it")
	}
	b.Release(fb)
	if _, free := bus.PoolStats(); free != 1 {
		t.Fatalf("pool holds %d buffers after final release, want 1", free)
	}
}

// TestBridgeForwardingUnderOverflow floods a bridge port past its ring
// capacity: the bridge must forward exactly the frames its ring
// accepted, count the rest as drops, and keep forwarding afterwards.
func TestBridgeForwardingUnderOverflow(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 2
	k := sim.New(1)
	segA := NewBus(k, p)
	segB := NewBus(k, p)
	br := NewBridge(k, segA, segB, 100*time.Microsecond)

	sink := segB.Attach("sink", nil)

	// The bridge drains its port ring from the interrupt callback, so a
	// burst serialized on the shared medium cannot overrun it — but the
	// far side can: the bridge re-transmits onto segment B whose sink
	// never drains. Send a burst and verify both properties.
	burst := 6
	txs := make([]*NIC, burst)
	for i := range txs {
		txs[i] = segA.Attach("tx", nil)
	}
	for i, tx := range txs {
		tx.Send(Broadcast, []byte{byte(i)})
	}
	k.Run()
	if got := br.Forwarded(); got != uint64(burst) {
		t.Fatalf("bridge forwarded %d frames, want %d", got, burst)
	}
	got := 0
	for {
		f, ok := sink.Recv()
		if !ok {
			break
		}
		if int(f.Payload[0]) != got {
			t.Errorf("forwarded frame %d carries payload %d", got, f.Payload[0])
		}
		sink.Release(f)
		got++
	}
	// The sink's own ring capacity (2) bounds what survives the far
	// side: the bridge re-serializes frames onto segment B faster than
	// the sink drains (it never drains), so exactly RxRing survive and
	// the rest are sink-side ring drops.
	if got != p.RxRing {
		t.Errorf("sink received %d frames, want %d (ring-bounded)", got, p.RxRing)
	}
	if sink.Drops() != uint64(burst-p.RxRing) {
		t.Errorf("sink drops = %d, want %d", sink.Drops(), burst-p.RxRing)
	}
}

// TestLazyRingGrowsOnDemand pins the physically-lazy ring: a deep drop
// bound costs nothing until frames actually queue, the backing array
// doubles as occupancy grows, FIFO order survives every growth unwrap,
// and the logical capacity still bounds drops exactly.
func TestLazyRingGrowsOnDemand(t *testing.T) {
	p := DefaultParams()
	k := sim.New(1)
	bus := NewBus(k, p)
	rx := bus.AttachWithRing("rx", nil, 1024)
	tx := bus.Attach("tx", nil)

	// The bound is logical: nothing is allocated for an idle ring.
	if rx.RingCap() != 1024 {
		t.Fatalf("ring cap = %d, want 1024", rx.RingCap())
	}
	if got := rx.MemFootprint(); got > 512 {
		t.Errorf("idle 1024-slot ring costs %d bytes, want O(struct) only", got)
	}

	// Fill past several doublings; count and order must be exact.
	fill(k, tx, 100)
	if rx.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", rx.Pending())
	}
	if rx.Drops() != 0 {
		t.Fatalf("drops = %d below the bound, want 0", rx.Drops())
	}
	for i := 0; i < 100; i++ {
		f, ok := rx.Recv()
		if !ok {
			t.Fatalf("ring underflow at %d", i)
		}
		if f.Payload[0] != byte(i) {
			t.Fatalf("frame %d payload = %d, want %d (FIFO broken by growth)", i, f.Payload[0], i)
		}
		rx.Release(f)
	}
}

// TestAttachWithRingRoleAwareSizing proves per-NIC bounds coexist on
// one bus: a server with a deep ring absorbs a burst that a default
// client ring drops, drop accounting stays per-NIC, and Attach remains
// exactly AttachWithRing(default).
func TestAttachWithRingRoleAwareSizing(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 4
	k := sim.New(1)
	bus := NewBus(k, p)
	server := bus.AttachWithRing("server", nil, 64)
	client := bus.Attach("client", nil)
	tx := bus.Attach("tx", nil)

	if client.RingCap() != 4 {
		t.Fatalf("Attach ring cap = %d, want params default 4", client.RingCap())
	}
	fill(k, tx, 20)
	if server.Pending() != 20 || server.Drops() != 0 {
		t.Errorf("server pending=%d drops=%d, want 20 and 0", server.Pending(), server.Drops())
	}
	if client.Pending() != 4 || client.Drops() != 16 {
		t.Errorf("client pending=%d drops=%d, want 4 and 16", client.Pending(), client.Drops())
	}
}
