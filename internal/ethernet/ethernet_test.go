package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

func newTestBus(t *testing.T, p Params) (*sim.Kernel, *Bus) {
	t.Helper()
	k := sim.New(1)
	return k, NewBus(k, p)
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	var got [3]int
	nics := make([]*NIC, 3)
	for i := 0; i < 3; i++ {
		i := i
		nics[i] = b.Attach("n", func() { got[i]++ })
	}
	nics[0].Send(Broadcast, []byte("hello"))
	k.Run()
	if got[0] != 0 {
		t.Error("sender received its own broadcast")
	}
	if got[1] != 1 || got[2] != 1 {
		t.Errorf("receivers got %v interrupts, want 1 each", got)
	}
	f, ok := nics[1].Recv()
	if !ok || !bytes.Equal(f.Payload, []byte("hello")) {
		t.Errorf("frame = %+v, ok=%v", f, ok)
	}
	if f.Src != 0 || f.Dst != Broadcast {
		t.Errorf("frame addressing = src %d dst %d", f.Src, f.Dst)
	}
}

func TestUnicastReachesOnlyTarget(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	n0 := b.Attach("a", nil)
	n1 := b.Attach("b", nil)
	n2 := b.Attach("c", nil)
	n0.Send(n2.ID(), []byte{1, 2, 3})
	k.Run()
	if n1.Pending() != 0 {
		t.Error("bystander received unicast frame")
	}
	if n2.Pending() != 1 {
		t.Error("target did not receive unicast frame")
	}
}

func TestSerializationTiming(t *testing.T) {
	p := DefaultParams()
	p.PropDelay = 0
	p.InterFrameGap = 0
	k, b := newTestBus(t, p)
	n0 := b.Attach("tx", nil)
	var arrival time.Duration
	rx := b.Attach("rx", func() { arrival = k.Now() })
	// 8192-byte payload + 46 overhead = 8238 bytes = 65904 bits at 10 Mb/s
	// = 6.5904 ms.
	n0.Send(rx.ID(), make([]byte, 8192))
	k.Run()
	want := time.Duration(8238*8) * time.Second / 10_000_000
	if arrival != want {
		t.Errorf("arrival = %v, want %v", arrival, want)
	}
}

func TestBackToBackFramesSerialize(t *testing.T) {
	p := DefaultParams()
	p.PropDelay = 0
	k, b := newTestBus(t, p)
	n0 := b.Attach("tx", nil)
	var arrivals []time.Duration
	rx := b.Attach("rx", func() { arrivals = append(arrivals, k.Now()) })
	n0.Send(rx.ID(), make([]byte, 1000))
	n0.Send(rx.ID(), make([]byte, 1000))
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	per := medium.TxTime(medium.WireBytes(1000, p.FrameOverhead, p.MinFrameBytes), p.BandwidthBps)
	if arrivals[0] != per {
		t.Errorf("first arrival %v, want %v", arrivals[0], per)
	}
	wantSecond := 2*per + p.InterFrameGap
	if arrivals[1] != wantSecond {
		t.Errorf("second arrival %v, want %v (serialized)", arrivals[1], wantSecond)
	}
}

func TestMinFramePadding(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	n0 := b.Attach("tx", nil)
	b.Attach("rx", nil)
	n0.Send(Broadcast, []byte{1}) // 1+46 = 47 < 64 → padded
	k.Run()
	if got := b.Stats().WireBytes; got != 64 {
		t.Errorf("wire bytes = %d, want 64 (min frame)", got)
	}
	if got := b.Stats().PayloadBytes; got != 1 {
		t.Errorf("payload bytes = %d, want 1", got)
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 4
	k, b := newTestBus(t, p)
	n0 := b.Attach("tx", nil)
	rx := b.Attach("rx", nil) // nobody drains the ring
	for i := 0; i < 10; i++ {
		n0.Send(rx.ID(), []byte{byte(i)})
	}
	k.Run()
	if rx.Pending() != 4 {
		t.Errorf("ring holds %d, want 4", rx.Pending())
	}
	if rx.Drops() != 6 {
		t.Errorf("drops = %d, want 6", rx.Drops())
	}
	if b.Stats().RingDrops != 6 {
		t.Errorf("stats drops = %d, want 6", b.Stats().RingDrops)
	}
}

func TestWireLossDropsFrameEverywhere(t *testing.T) {
	p := DefaultParams()
	p.LossRate = 1.0
	k, b := newTestBus(t, p)
	n0 := b.Attach("tx", nil)
	r1 := b.Attach("rx1", nil)
	r2 := b.Attach("rx2", nil)
	n0.Send(Broadcast, []byte("doomed"))
	k.Run()
	if r1.Pending() != 0 || r2.Pending() != 0 {
		t.Error("lost frame was delivered")
	}
	if b.Stats().WireLost != 1 {
		t.Errorf("WireLost = %d, want 1", b.Stats().WireLost)
	}
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		k := sim.New(seed)
		p := DefaultParams()
		p.LossRate = 0.5
		b := NewBus(k, p)
		tx := b.Attach("tx", nil)
		b.Attach("rx", nil)
		for i := 0; i < 100; i++ {
			tx.Send(Broadcast, []byte{byte(i)})
		}
		k.Run()
		return b.Stats().WireLost
	}
	if run(7) != run(7) {
		t.Error("same seed gave different loss patterns")
	}
}

func TestPayloadIsCopied(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	n0 := b.Attach("tx", nil)
	rx := b.Attach("rx", nil)
	buf := []byte{1, 2, 3}
	n0.Send(rx.ID(), buf)
	buf[0] = 99 // mutate after send
	k.Run()
	f, _ := rx.Recv()
	if f.Payload[0] != 1 {
		t.Error("bus aliased the caller's payload buffer")
	}
}

func TestRecvEmptyRing(t *testing.T) {
	_, b := newTestBus(t, DefaultParams())
	n := b.Attach("n", nil)
	if _, ok := n.Recv(); ok {
		t.Error("Recv on empty ring reported a frame")
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	n0 := b.Attach("tx", nil)
	rx := b.Attach("rx", nil)
	for i := 0; i < 10; i++ {
		n0.Send(rx.ID(), []byte{byte(i)})
	}
	k.Run()
	for i := 0; i < 10; i++ {
		f, ok := rx.Recv()
		if !ok || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: %+v ok=%v", i, f, ok)
		}
	}
}

func TestUtilization(t *testing.T) {
	p := DefaultParams()
	p.PropDelay = 0
	p.InterFrameGap = 0
	k, b := newTestBus(t, p)
	n0 := b.Attach("tx", nil)
	rx := b.Attach("rx", nil)
	n0.Send(rx.ID(), make([]byte, 1204)) // 1250 wire bytes = 1ms at 10Mb/s
	end := k.Run()
	if end != time.Millisecond {
		t.Fatalf("run ended at %v, want 1ms", end)
	}
	if u := b.Utilization(end); u < 0.99 || u > 1.01 {
		t.Errorf("utilization = %f, want ~1.0", u)
	}
}

// TestWireBytesProperty: wire size is always >= max(min frame, payload)
// and payload accounting is exact.
func TestWireBytesProperty(t *testing.T) {
	p := DefaultParams()
	prop := func(sz uint16) bool {
		k := sim.New(1)
		b := NewBus(k, p)
		tx := b.Attach("tx", nil)
		b.Attach("rx", nil)
		payload := make([]byte, int(sz)%9000)
		tx.Send(Broadcast, payload)
		k.Run()
		st := b.Stats()
		if st.PayloadBytes != uint64(len(payload)) {
			return false
		}
		want := len(payload) + p.FrameOverhead
		if want < p.MinFrameBytes {
			want = p.MinFrameBytes
		}
		return st.WireBytes == uint64(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNICDownDropsTraffic(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	tx := b.Attach("tx", nil)
	rx := b.Attach("rx", nil)
	rx.SetDown(true)
	tx.Send(Broadcast, []byte("lost"))
	k.RunUntil(100 * time.Millisecond)
	if rx.Pending() != 0 {
		t.Error("down NIC received a frame")
	}
	rx.SetDown(false)
	if rx.Down() {
		t.Error("Down() stuck true")
	}
	tx.Send(Broadcast, []byte("arrives"))
	k.Run()
	if f, ok := rx.Recv(); !ok || string(f.Payload) != "arrives" {
		t.Errorf("after recovery got %q, ok=%v", f.Payload, ok)
	}
}

func TestDownNICCannotTransmit(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	tx := b.Attach("tx", nil)
	rx := b.Attach("rx", nil)
	tx.SetDown(true)
	tx.Send(Broadcast, []byte("nope"))
	k.Run()
	if rx.Pending() != 0 {
		t.Error("down NIC transmitted")
	}
	if b.Stats().Frames != 0 {
		t.Error("down NIC's frame hit the wire stats")
	}
}

// TestDownNICCountsSuppressedSends: a swallowed send must leave a
// counter trail — per NIC and in the segment stats — instead of
// vanishing, and recovery must stop the counting.
func TestDownNICCountsSuppressedSends(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	tx := b.Attach("tx", nil)
	other := b.Attach("other", nil)
	tx.SetDown(true)
	tx.Send(Broadcast, []byte("one"))
	tx.Send(other.ID(), []byte("two"))
	if got := tx.TxSuppressed(); got != 2 {
		t.Errorf("NIC TxSuppressed = %d, want 2", got)
	}
	if got := b.Stats().TxSuppressed; got != 2 {
		t.Errorf("Stats().TxSuppressed = %d, want 2", got)
	}
	if got := other.TxSuppressed(); got != 0 {
		t.Errorf("bystander TxSuppressed = %d, want 0", got)
	}
	tx.SetDown(false)
	tx.Send(Broadcast, []byte("three"))
	k.Run()
	if got := b.Stats().TxSuppressed; got != 2 {
		t.Errorf("after recovery Stats().TxSuppressed = %d, want 2", got)
	}
	if f, ok := other.Recv(); !ok || string(f.Payload) != "three" {
		t.Errorf("recovered send got %q, ok=%v", f.Payload, ok)
	}
}

// TestUnicastEdgeAddresses: frames to the sender itself or to an
// unattached id reach no one — the indexed lookup must decide these
// exactly as the former all-stations scan did, without panicking.
func TestUnicastEdgeAddresses(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	n0 := b.Attach("a", nil)
	n1 := b.Attach("b", nil)
	n0.Send(n0.ID(), []byte("self"))
	n0.Send(99, []byte("nobody"))
	n0.Send(-7, []byte("negative"))
	k.Run()
	if n0.Pending() != 0 || n1.Pending() != 0 {
		t.Errorf("edge-addressed unicasts delivered: pending %d/%d, want 0/0",
			n0.Pending(), n1.Pending())
	}
	if got := b.Stats().Frames; got != 3 {
		t.Errorf("frames transmitted = %d, want 3 (they occupy the wire regardless)", got)
	}
}

// TestViewSharedAndRecycled: a view attached by one receiver is visible
// to the other receivers of the same transmission, handed to the
// OnViewDrop recycler exactly once when the buffer recycles, and never
// leaks into the buffer's next transmission.
func TestViewSharedAndRecycled(t *testing.T) {
	k, b := newTestBus(t, DefaultParams())
	var dropped []any
	b.OnViewDrop(func(v any) { dropped = append(dropped, v) })
	tx := b.Attach("tx", nil)
	r1 := b.Attach("r1", nil)
	r2 := b.Attach("r2", nil)
	tx.Send(Broadcast, []byte("payload"))
	k.Run()

	f1, _ := r1.Recv()
	f2, _ := r2.Recv()
	if f1.View() != nil {
		t.Fatal("fresh frame already has a view")
	}
	view := "decoded"
	f1.SetView(&view)
	if got := f2.View(); got != &view {
		t.Fatalf("second receiver sees view %v, want the one attached by the first", got)
	}
	r1.Release(f1)
	if len(dropped) != 0 {
		t.Fatal("view dropped while a receiver still held the buffer")
	}
	r2.Release(f2)
	if len(dropped) != 1 || dropped[0] != &view {
		t.Fatalf("dropped = %v, want exactly the attached view", dropped)
	}

	// The recycled buffer's next transmission starts view-free.
	tx.Send(Broadcast, []byte("next"))
	k.Run()
	g1, _ := r1.Recv()
	if g1.View() != nil {
		t.Error("recycled buffer leaked the previous transmission's view")
	}
	if len(dropped) != 1 {
		t.Errorf("recycler ran %d times, want 1", len(dropped))
	}
}
