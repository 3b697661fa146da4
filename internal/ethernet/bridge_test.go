package ethernet

import (
	"fmt"
	"testing"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// bridged joins two default segments with a bridge of the given delay.
func bridged(delay time.Duration) (*sim.Kernel, *Bus, *Bus, *Bridge) {
	k := sim.New(1)
	a, b := NewBus(k, DefaultParams()), NewBus(k, DefaultParams())
	return k, a, b, NewBridge(k, a, b, delay)
}

func TestBridgeForwardsBothWays(t *testing.T) {
	k, a, b, br := bridged(time.Millisecond)
	hostA, hostB := a.AttachPort("hostA", nil), b.AttachPort("hostB", nil)
	hostA.Send(medium.Broadcast, []byte("from-a"))
	hostB.Send(medium.Broadcast, []byte("from-b"))
	k.Run()
	want(t, "at A, at B, forwarded", fmt.Sprint(recv(hostA), recv(hostB), br.Forwarded()), "[from-b] [from-a] 2")
}

func TestBridgeAddsDelay(t *testing.T) {
	k, a, b, _ := bridged(5 * time.Millisecond)
	local := a.AttachPort("local", nil)
	var localAt, remoteAt time.Duration
	a.AttachPort("sameTrunk", func() { localAt = k.Now() })
	b.AttachPort("otherTrunk", func() { remoteAt = k.Now() })
	local.Send(medium.Broadcast, []byte("x"))
	k.Run()
	if remoteAt-localAt < 5*time.Millisecond {
		t.Errorf("cross-bridge delivery at %v, same-trunk at %v: want the 5ms bridge delay between", remoteAt, localAt)
	}
}

// TestPurgeOrderingDiffersAcrossTrunks reproduces the paper's argument
// against conventional cache-invalidate protocols on bridged Ethernets:
// two hosts on different trunks broadcast "purges" near-simultaneously,
// and observers on the two trunks see them in opposite orders. With no
// global purge ordering, ownership races cannot be resolved the way
// hardware cache buses resolve them, which is why Mether keeps a single
// consistent copy and abandons global consistency.
func TestPurgeOrderingDiffersAcrossTrunks(t *testing.T) {
	k, a, b, br := bridged(time.Millisecond)
	br.SetBacklog(4*time.Millisecond, 0) // background traffic piles up toward trunk A
	hostA, hostB := a.AttachPort("hostA", nil), b.AttachPort("hostB", nil)
	observerA, observerB := a.AttachPort("observerA", nil), b.AttachPort("observerB", nil)
	k.After(time.Millisecond, "purgeA", func() { hostA.Send(medium.Broadcast, []byte("purge-A")) })
	k.After(time.Millisecond+time.Microsecond, "purgeB", func() { hostB.Send(medium.Broadcast, []byte("purge-B")) })
	k.Run()
	want(t, "order on A, on B", fmt.Sprint(recv(observerA), recv(observerB)), "[purge-A purge-B] [purge-B purge-A]")
}

// A chain of three segments forwards end to end, once.
func TestBridgeLoopFreeTopology(t *testing.T) {
	k := sim.New(1)
	a, b, c := NewBus(k, DefaultParams()), NewBus(k, DefaultParams()), NewBus(k, DefaultParams())
	NewBridge(k, a, b, time.Millisecond)
	NewBridge(k, b, c, time.Millisecond)
	src := a.AttachPort("src", nil)
	got := 0
	c.AttachPort("dst", func() { got++ })
	src.Send(medium.Broadcast, []byte("end-to-end"))
	k.Run()
	want(t, "end-to-end deliveries", got, 1)
}

// A bridge port flooded past a far ring forwards every frame its own ring
// took; the far sink keeps its ring's worth and counts the rest as drops.
func TestBridgeForwardingUnderOverflow(t *testing.T) {
	p := DefaultParams()
	p.RxRing = 2
	k := sim.New(1)
	a, b := NewBus(k, p), NewBus(k, p)
	br := NewBridge(k, a, b, 100*time.Microsecond)
	sink := b.AttachPort("sink", nil)
	for i := 0; i < 6; i++ {
		a.AttachPort("tx", nil).Send(medium.Broadcast, []byte{'0' + byte(i)})
	}
	k.Run()
	want(t, "forwarded, sink frames, sink drops", fmt.Sprint(br.Forwarded(), recv(sink), sink.Drops()), "6 [0 1] 4")
}

// Partitioning a bridge drains its queued frames, counted and never
// replayed after the heal, with their buffers released; traffic crosses
// again after the heal.
func TestBridgePartitionDrainsQueuedFrames(t *testing.T) {
	k, a, b, br := bridged(10 * time.Millisecond)
	hostA, hostB := a.AttachPort("hostA", nil), b.AttachPort("hostB", nil)
	for i := 0; i < 4; i++ {
		hostA.Send(medium.Broadcast, []byte{byte(i)})
	}
	k.After(time.Millisecond, "partition", func() { br.SetPartitioned(true) })
	k.After(50*time.Millisecond, "heal", func() { br.SetPartitioned(false) })
	k.Run()
	crossed := hostB.Pending()
	hostA.Send(medium.Broadcast, []byte("after-heal"))
	k.Run()
	want(t, "crossed while partitioned, partition drops > 0, after the heal",
		fmt.Sprint(crossed, br.Stats().PartitionDrops > 0, recv(hostB)), "0 true [after-heal]")
	balanced(t, a)
	balanced(t, b)
}
