package ethernet

import (
	"testing"
	"time"

	"mether/internal/sim"
)

func TestBridgeForwardsBothWays(t *testing.T) {
	k := sim.New(1)
	a := NewBus(k, DefaultParams())
	b := NewBus(k, DefaultParams())
	br := NewBridge(k, a, b, time.Millisecond)

	hostA := a.Attach("hostA", nil)
	hostB := b.Attach("hostB", nil)

	hostA.Send(Broadcast, []byte("from-a"))
	hostB.Send(Broadcast, []byte("from-b"))
	k.Run()

	fa, ok := hostA.Recv()
	if !ok || string(fa.Payload) != "from-b" {
		t.Errorf("hostA got %q, want from-b", fa.Payload)
	}
	fb, ok := hostB.Recv()
	if !ok || string(fb.Payload) != "from-a" {
		t.Errorf("hostB got %q, want from-a", fb.Payload)
	}
	if br.Forwarded() != 2 {
		t.Errorf("forwarded = %d, want 2", br.Forwarded())
	}
	k.Shutdown()
}

func TestBridgeAddsDelay(t *testing.T) {
	k := sim.New(1)
	a := NewBus(k, DefaultParams())
	b := NewBus(k, DefaultParams())
	NewBridge(k, a, b, 5*time.Millisecond)

	local := a.Attach("local", nil)
	var localAt, remoteAt time.Duration
	a.Attach("sameTrunk", func() { localAt = k.Now() })
	b.Attach("otherTrunk", func() { remoteAt = k.Now() })

	local.Send(Broadcast, []byte("x"))
	k.Run()
	if remoteAt <= localAt {
		t.Errorf("cross-bridge delivery (%v) should lag same-trunk (%v)", remoteAt, localAt)
	}
	if remoteAt-localAt < 5*time.Millisecond {
		t.Errorf("bridge delay not applied: gap %v", remoteAt-localAt)
	}
	k.Shutdown()
}

// TestPurgeOrderingDiffersAcrossTrunks reproduces the paper's argument
// against conventional cache-invalidate protocols on bridged Ethernets:
// two hosts on different trunks broadcast "purges" near-simultaneously,
// and observers on the two trunks see them in opposite orders. With no
// global purge ordering, ownership races cannot be resolved the way
// hardware cache buses resolve them, which is why Mether keeps a single
// consistent copy and abandons global consistency.
func TestPurgeOrderingDiffersAcrossTrunks(t *testing.T) {
	k := sim.New(1)
	a := NewBus(k, DefaultParams())
	b := NewBus(k, DefaultParams())
	br := NewBridge(k, a, b, time.Millisecond)
	// Background traffic piles up toward trunk A.
	br.SetBacklog(4*time.Millisecond, 0)

	hostA := a.Attach("hostA", nil) // issues purge "A"
	hostB := b.Attach("hostB", nil) // issues purge "B"

	var seenOnA, seenOnB []string
	a.Attach("observerA", nil)
	b.Attach("observerB", nil)
	drain := func(n *NIC, into *[]string) {
		for {
			f, ok := n.Recv()
			if !ok {
				return
			}
			*into = append(*into, string(f.Payload))
		}
	}

	// Both purges issued within a microsecond of each other.
	k.After(time.Millisecond, "purgeA", func() { hostA.Send(Broadcast, []byte("purge-A")) })
	k.After(time.Millisecond+time.Microsecond, "purgeB", func() { hostB.Send(Broadcast, []byte("purge-B")) })
	k.Run()

	for _, n := range a.nics {
		if n.Name() == "observerA" {
			drain(n, &seenOnA)
		}
	}
	for _, n := range b.nics {
		if n.Name() == "observerB" {
			drain(n, &seenOnB)
		}
	}

	if len(seenOnA) != 2 || len(seenOnB) != 2 {
		t.Fatalf("observers saw %v / %v, want both purges each", seenOnA, seenOnB)
	}
	if seenOnA[0] == seenOnB[0] {
		t.Errorf("both trunks agreed on purge order (%v vs %v); expected disagreement under asymmetric queueing",
			seenOnA, seenOnB)
	}
	if seenOnA[0] != "purge-A" {
		t.Errorf("trunk A should see its local purge first, got %v", seenOnA)
	}
	if seenOnB[0] != "purge-B" {
		t.Errorf("trunk B should see its local purge first, got %v", seenOnB)
	}
	k.Shutdown()
}

func TestBridgeLoopFreeTopology(t *testing.T) {
	// A chain of three segments forwards end to end (no flooding storms
	// in a loop-free topology).
	k := sim.New(1)
	a := NewBus(k, DefaultParams())
	b := NewBus(k, DefaultParams())
	c := NewBus(k, DefaultParams())
	NewBridge(k, a, b, time.Millisecond)
	NewBridge(k, b, c, time.Millisecond)

	src := a.Attach("src", nil)
	got := 0
	c.Attach("dst", func() { got++ })
	src.Send(Broadcast, []byte("end-to-end"))
	k.Run()
	if got != 1 {
		t.Errorf("end-to-end deliveries = %d, want exactly 1", got)
	}
	k.Shutdown()
}
