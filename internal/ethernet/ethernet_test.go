package ethernet

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// The medium contract — rings, drops, down ports, loss, fan-out, pool
// balance — is held to the reference medium by TestMediumMatchesSpec
// (internal/medium). The cases here are worked examples on the concrete
// Bus: written instants, byte counts and buffer identities.

// segment attaches n NICs to a bus with p; at[i] records the instants
// NIC i's interrupt fired.
func segment(p Params, n int) (k *sim.Kernel, b *Bus, nics []medium.Port, at [][]time.Duration) {
	k = sim.New(1)
	b = NewBus(k, p)
	at = make([][]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		nics = append(nics, b.AttachPort(fmt.Sprint("n", i), func() { at[i] = append(at[i], k.Now()) }))
	}
	return k, b, nics, at
}

// recv drains a NIC, releasing every frame, and returns the payloads.
func recv(n medium.Port) (got []string) {
	for f, ok := n.Recv(); ok; f, ok = n.Recv() {
		got = append(got, string(f.Payload))
		n.Release(f)
	}
	return got
}

func want[T comparable](t *testing.T, what string, got, want T) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func balanced(t *testing.T, b *Bus) {
	t.Helper()
	alloc, free := b.PoolStats()
	want(t, "buffers allocated minus free", alloc-free, 0)
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	k, _, n, at := segment(DefaultParams(), 3)
	n[0].Send(medium.Broadcast, []byte("hello"))
	k.Run()
	want(t, "interrupts", fmt.Sprint(len(at[0]), len(at[1]), len(at[2])), "0 1 1")
	f, _ := n[1].Recv()
	want(t, "frame", fmt.Sprintf("%d->%d %s", f.Src, f.Dst, f.Payload), "0->-1 hello")
}

func TestUnicastReachesOnlyTarget(t *testing.T) {
	k, _, n, _ := segment(DefaultParams(), 3)
	n[0].Send(2, []byte{1, 2, 3})
	k.Run()
	want(t, "pending at the bystander and the target", fmt.Sprint(n[1].Pending(), n[2].Pending()), "0 1")
}

// 8192 payload bytes + 46 overhead = 65 904 bits: 6.5904 ms at 10 Mb/s.
func TestSerializationTiming(t *testing.T) {
	p := DefaultParams()
	p.PropDelay, p.InterFrameGap = 0, 0
	k, _, n, at := segment(p, 2)
	n[0].Send(1, make([]byte, 8192))
	k.Run()
	want(t, "arrival", fmt.Sprint(at[1]), "[6.5904ms]")
}

// 1046 wire bytes take 836.8µs; the second frame waits for the first and
// the 10µs gap.
func TestBackToBackFramesSerialize(t *testing.T) {
	p := DefaultParams()
	p.PropDelay = 0
	k, _, n, at := segment(p, 2)
	n[0].Send(1, make([]byte, 1000))
	n[0].Send(1, make([]byte, 1000))
	k.Run()
	want(t, "arrivals", fmt.Sprint(at[1]), "[836.8µs 1.6836ms]")
}

func TestMinFramePadding(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 2)
	n[0].Send(medium.Broadcast, []byte{1}) // 1+46 = 47 < 64: padded
	k.Run()
	want(t, "wire and payload bytes", fmt.Sprint(b.Stats().WireBytes, b.Stats().PayloadBytes), "64 1")
}

func TestRxRingOverflowDrops(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 4
	k, b, n, _ := segment(p, 2)
	for i := 0; i < 10; i++ {
		n[0].Send(1, []byte{byte(i)})
	}
	k.Run()
	want(t, "pending, drops, segment drops", fmt.Sprint(n[1].Pending(), n[1].Drops(), b.Stats().RingDrops), "4 6 6")
}

func TestWireLossDropsFrameEverywhere(t *testing.T) {
	p := DefaultParams()
	p.LossRate = 1
	k, b, n, _ := segment(p, 3)
	n[0].Send(medium.Broadcast, []byte("doomed"))
	n[0].Send(1, []byte("doomed"))
	k.Run()
	want(t, "pending, lost", fmt.Sprint(n[1].Pending(), n[2].Pending(), b.Stats().WireLost), "0 0 2")
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		p := DefaultParams()
		p.LossRate = 0.5
		k := sim.New(seed)
		b := NewBus(k, p)
		tx := b.AttachPort("tx", nil)
		b.AttachPort("rx", nil)
		for i := 0; i < 100; i++ {
			tx.Send(medium.Broadcast, []byte{byte(i)})
		}
		k.Run()
		return b.Stats().WireLost
	}
	if a, b := run(7), run(7); a != b || a == 0 || a == 100 {
		t.Errorf("seed 7 lost %d then %d of 100 frames, want the same share of them twice", a, b)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	k, _, n, _ := segment(DefaultParams(), 2)
	buf := []byte{1, 2, 3}
	n[0].Send(1, buf)
	buf[0] = 99
	k.Run()
	want(t, "payload", fmt.Sprint(recv(n[1])), "[\x01\x02\x03]")
}

func TestRecvEmptyRing(t *testing.T) {
	_, b, _, _ := segment(DefaultParams(), 0)
	if _, ok := b.AttachPort("n", nil).Recv(); ok {
		t.Error("Recv on an empty ring reported a frame")
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 2)
	for i := 0; i < 10; i++ {
		n[0].Send(1, []byte{'0' + byte(i)})
	}
	k.Run()
	want(t, "frames", fmt.Sprint(recv(n[1])), "[0 1 2 3 4 5 6 7 8 9]")
	balanced(t, b)
}

// 1204 payload bytes are 1250 on the wire: 1 ms at 10 Mb/s.
func TestUtilization(t *testing.T) {
	p := DefaultParams()
	p.PropDelay, p.InterFrameGap = 0, 0
	k, b, n, _ := segment(p, 2)
	n[0].Send(1, make([]byte, 1204))
	end := k.Run()
	want(t, "run end, utilization", fmt.Sprint(end, b.Utilization(end), b.Utilization(0)), "1ms 1 0")
}

// Wire size is max(min frame, payload + overhead), payload bytes exact.
func TestWireBytesProperty(t *testing.T) {
	p := DefaultParams()
	prop := func(sz uint16) bool {
		k, b, n, _ := segment(p, 2)
		n[0].Send(medium.Broadcast, make([]byte, int(sz)%9000))
		k.Run()
		st := b.Stats()
		return st.PayloadBytes == uint64(sz%9000) && st.WireBytes == uint64(max(int(sz%9000)+p.FrameOverhead, p.MinFrameBytes))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNICDownDropsTraffic(t *testing.T) {
	k, _, n, _ := segment(DefaultParams(), 2)
	n[1].SetDown(true)
	n[0].Send(medium.Broadcast, []byte("lost"))
	k.RunUntil(100 * time.Millisecond)
	n[1].SetDown(false)
	n[0].Send(medium.Broadcast, []byte("arrives"))
	k.Run()
	want(t, "frames after recovery", fmt.Sprint(n[1].Down(), recv(n[1])), "false [arrives]")
}

func TestDownNICCannotTransmit(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 2)
	n[0].SetDown(true)
	n[0].Send(medium.Broadcast, []byte("nope"))
	k.Run()
	want(t, "pending, frames", fmt.Sprint(n[1].Pending(), b.Stats().Frames), "0 0")
}

// A swallowed send leaves a counter trail, per NIC and in the segment's
// stats, until the NIC recovers.
func TestDownNICCountsSuppressedSends(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 2)
	n[0].SetDown(true)
	n[0].Send(medium.Broadcast, []byte("one"))
	n[0].Send(1, []byte("two"))
	n[0].SetDown(false)
	n[0].Send(medium.Broadcast, []byte("three"))
	k.Run()
	want(t, "suppressed: sender, bystander, segment", fmt.Sprint(n[0].TxSuppressed(), n[1].TxSuppressed(), b.Stats().TxSuppressed), "2 0 2")
	want(t, "frames", fmt.Sprint(recv(n[1])), "[three]")
}

// Frames to the sender or to an unattached id take the wire and reach no
// one.
func TestUnicastEdgeAddresses(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 2)
	for _, dst := range []int{0, 99, -7} {
		n[0].Send(dst, []byte("nobody"))
	}
	k.Run()
	want(t, "pending, frames", fmt.Sprint(n[0].Pending(), n[1].Pending(), b.Stats().Frames), "0 0 3")
}

// countingView counts the times its buffer is handed out with new bytes.
type countingView struct{ invalidated int }

func (v *countingView) Invalidate() { v.invalidated++ }

// A view attached by one receiver is the other receivers' too, stays on
// the buffer as it recycles, and is invalidated once, when the buffer
// carries the next transmission.
func TestViewSharedAndRecycled(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 3)
	n[0].Send(medium.Broadcast, []byte("payload"))
	k.Run()
	f1, _ := n[1].Recv()
	f2, _ := n[2].Recv()
	fresh := f1.View() == nil
	v := new(countingView)
	f1.SetView(v)
	n[1].Release(f1)
	shared, early := f2.View() == v, v.invalidated
	n[2].Release(f2)
	released := v.invalidated
	n[0].Send(medium.Broadcast, []byte("next"))
	k.Run()
	g, _ := n[1].Recv()
	want(t, "fresh, shared, invalidated early, at release, next kept, invalidated", fmt.Sprint(fresh, shared, early, released, g.View() == v, v.invalidated), "true true 0 0 true 1")
	n[1].Release(g)
	recv(n[2])
	balanced(t, b)
}

// A NIC taken down while a broadcast is in flight neither receives it nor
// keeps a reference on its buffer.
func TestSetDownMidBroadcastReleasesSharedBuffer(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 4)
	n[0].Send(medium.Broadcast, []byte("in-flight"))
	n[2].SetDown(true)
	k.Run()
	want(t, "frames at 1, 2, 3", fmt.Sprint(recv(n[1]), recv(n[2]), recv(n[3])), "[in-flight] [] [in-flight]")
	balanced(t, b)
}

func TestSetDownSuppressesSends(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 2)
	n[0].SetDown(true)
	n[0].Send(medium.Broadcast, []byte("lost"))
	k.Run()
	n[0].SetDown(false)
	n[0].Send(medium.Broadcast, []byte("back"))
	k.Run()
	want(t, "frames", fmt.Sprint(recv(n[1])), "[back]")
	balanced(t, b)
}

// After an overrun, draining makes room again and the wrapped slots keep
// FIFO order.
func TestRxRingDrainReopensRing(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 3
	k, _, n, _ := segment(p, 2)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		n[1].Send(medium.Broadcast, []byte(s))
	}
	k.Run()
	first, _ := n[0].Recv()
	got := string(first.Payload)
	n[0].Release(first)
	n[1].Send(medium.Broadcast, []byte("f"))
	k.Run()
	want(t, "drops, frames", fmt.Sprint(n[0].Drops(), append([]string{got}, recv(n[0])...)), "2 [a b c f]")
}

// A released buffer carries the next send, with the new bytes.
func TestReleasedBuffersAreRecycled(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 2)
	n[0].Send(1, []byte{0xAA, 0xBB})
	k.Run()
	f1, _ := n[1].Recv()
	n[1].Release(f1)
	_, free := b.PoolStats()
	n[0].Send(1, []byte{0x11, 0x22})
	k.Run()
	f2, _ := n[1].Recv()
	want(t, "free buffers, same buffer", fmt.Sprint(free, &f2.Payload[0] == &f1.Payload[0]), "1 true")
	want(t, "bytes", fmt.Sprintf("% x", f2.Payload), "11 22")
}

// A broadcast's receivers share one buffer; it is free after the last
// release.
func TestBroadcastBufferSharedUntilAllRelease(t *testing.T) {
	k, b, n, _ := segment(DefaultParams(), 3)
	n[2].Send(medium.Broadcast, []byte{7})
	k.Run()
	fa, _ := n[0].Recv()
	fb, _ := n[1].Recv()
	n[0].Release(fa)
	_, free := b.PoolStats()
	n[1].Release(fb)
	_, after := b.PoolStats()
	want(t, "shared, free after one release, after both", fmt.Sprint(fa.Buf == fb.Buf, free, after), "true 0 1")
}

// A deep bound costs nothing idle, the ring doubles with occupancy, and
// FIFO order survives every growth.
func TestLazyRingGrowsOnDemand(t *testing.T) {
	k := sim.New(1)
	b := NewBus(k, DefaultParams())
	rx := b.AttachPortWithRing("rx", nil, 1024)
	tx := b.AttachPort("tx", nil)
	idle := rx.MemFootprint()
	var sent []string
	for i := 0; i < 100; i++ {
		sent = append(sent, fmt.Sprint(i))
		tx.Send(medium.Broadcast, []byte(sent[i]))
	}
	k.Run()
	want(t, "cap, idle bytes, drops", fmt.Sprint(rx.RingCap(), idle <= 512, rx.Drops()), "1024 true 0")
	want(t, "frames", fmt.Sprint(recv(rx)), fmt.Sprint(sent))
}

// Per-NIC bounds coexist: a deep server ring absorbs what a default
// client ring drops, and AttachPort is AttachPortWithRing(default).
func TestAttachWithRingRoleAwareSizing(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 4
	k, b, n, _ := segment(p, 2)
	server := b.AttachPortWithRing("server", nil, 64)
	for i := 0; i < 20; i++ {
		n[0].Send(medium.Broadcast, []byte{byte(i)})
	}
	k.Run()
	want(t, "client cap, pending, drops; server pending, drops",
		fmt.Sprint(n[1].RingCap(), n[1].Pending(), n[1].Drops(), server.Pending(), server.Drops()), "4 4 16 20 0")
}
