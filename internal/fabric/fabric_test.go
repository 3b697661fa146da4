package fabric

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// poolBalanced fails the test unless every buffer the fabric ever
// allocated is back on its freelist — the invariant that holds whenever
// all receivers have drained and released their rings.
func poolBalanced(t *testing.T, fb *Fabric) {
	t.Helper()
	alloc, free := fb.PoolStats()
	if alloc != free {
		t.Fatalf("pool imbalance: %d allocated, %d free", alloc, free)
	}
}

// drain empties a port's ring, releasing every frame, and returns the
// payload copies in arrival order.
func drain(p medium.Port) [][]byte {
	var out [][]byte
	for {
		f, ok := p.Recv()
		if !ok {
			return out
		}
		out = append(out, append([]byte(nil), f.Payload...))
		p.Release(f)
	}
}

// TestBroadcastFanout: a broadcast on the fabric is a sender-paid
// unicast fan-out — one copy per attached destination, each stamped
// with its actual destination id, all sharing one pooled buffer.
func TestBroadcastFanout(t *testing.T) {
	k := sim.New(1)
	fb := New(k, DefaultParams())
	ports := make([]medium.Port, 4)
	for i := range ports {
		ports[i] = fb.AttachPort("p", nil)
	}
	k.After(0, "send", func() { ports[0].Send(medium.Broadcast, []byte("hello")) })
	k.Run()

	st := fb.Stats()
	if st.FanoutFrames != 3 || st.Frames != 3 {
		t.Fatalf("want 3 fan-out frames, got fanout=%d frames=%d", st.FanoutFrames, st.Frames)
	}
	var shared *medium.Buf
	for i, p := range ports {
		f, ok := p.Recv()
		if i == 0 {
			if ok {
				t.Fatalf("sender received its own broadcast")
			}
			continue
		}
		if !ok {
			t.Fatalf("port %d received nothing", i)
		}
		if f.Dst != i || f.Src != 0 {
			t.Fatalf("port %d: frame stamped %d->%d, want 0->%d", i, f.Src, f.Dst, i)
		}
		if !bytes.Equal(f.Payload, []byte("hello")) {
			t.Fatalf("port %d: payload %q", i, f.Payload)
		}
		if shared == nil {
			shared = f.Buf
		} else if f.Buf != shared {
			t.Fatalf("fan-out copies do not share one buffer")
		}
		p.Release(f)
	}
	poolBalanced(t, fb)
}

// TestLinkQueueOverflow: at most TxQueue frames may be in flight on one
// link; the excess is dropped, counted, and costs no wire time. The
// drops must also release their buffer references.
func TestLinkQueueOverflow(t *testing.T) {
	p := DefaultParams()
	p.TxQueue = 2
	k := sim.New(1)
	fb := New(k, p)
	a := fb.AttachPort("a", nil)
	b := fb.AttachPort("b", nil)
	k.After(0, "blast", func() {
		for i := 0; i < 5; i++ {
			a.Send(b.ID(), []byte{byte(i)})
		}
	})
	k.Run()

	st := fb.Stats()
	if st.LinkOverflows != 3 || st.Frames != 2 {
		t.Fatalf("want 3 overflows and 2 frames, got overflows=%d frames=%d", st.LinkOverflows, st.Frames)
	}
	if st.LinkMaxQueued != 2 {
		t.Fatalf("want link max queue 2, got %d", st.LinkMaxQueued)
	}
	got := drain(b)
	if len(got) != 2 || got[0][0] != 0 || got[1][0] != 1 {
		t.Fatalf("want the first two frames delivered in order, got %v", got)
	}
	poolBalanced(t, fb)
}

// TestLinkFIFOSerialization: frames on one link serialize behind each
// other (bandwidth plus latency, no inter-frame gap), while traffic on
// other links is unaffected — the fabric's defining contrast with the
// shared bus.
func TestLinkFIFOSerialization(t *testing.T) {
	p := DefaultParams() // 1 Gb/s, 64 B min frame => 512ns tx, 2us latency
	k := sim.New(1)
	fb := New(k, p)
	var arrivals []time.Duration
	a := fb.AttachPort("a", nil)
	b := fb.AttachPortWithRing("b", func() { arrivals = append(arrivals, k.Now()) }, 8)
	c := fb.AttachPort("c", nil)
	k.After(0, "sends", func() {
		a.Send(b.ID(), []byte{1}) // same link: serializes
		a.Send(b.ID(), []byte{2})
		c.Send(b.ID(), []byte{3}) // its own link: no queueing
	})
	k.Run()

	tx := 512 * time.Nanosecond
	lat := 2 * time.Microsecond
	want := []time.Duration{tx + lat, tx + lat, 2*tx + lat}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("arrival times %v, want %v", arrivals, want)
	}
	if got := drain(b); len(got) != 3 {
		t.Fatalf("want 3 frames at b, got %d", len(got))
	}
	poolBalanced(t, fb)
}

// TestPerLinkLoss: loss is rolled per fan-out copy — on a point-to-point
// medium each copy is its own transmission — and lost copies still
// release their buffer references.
func TestPerLinkLoss(t *testing.T) {
	p := DefaultParams()
	p.LossRate = 1
	k := sim.New(1)
	fb := New(k, p)
	a := fb.AttachPort("a", nil)
	for i := 0; i < 3; i++ {
		fb.AttachPort("rx", nil)
	}
	k.After(0, "send", func() { a.Send(medium.Broadcast, []byte("doomed")) })
	k.Run()

	st := fb.Stats()
	if st.WireLost != 3 || st.Frames != 3 {
		t.Fatalf("want every copy lost, got lost=%d frames=%d", st.WireLost, st.Frames)
	}
	for i, port := range fb.ports[1:] {
		if _, ok := port.Recv(); ok {
			t.Fatalf("port %d received a lost frame", i+1)
		}
	}
	poolBalanced(t, fb)
}

// TestDownPortSuppression: a down port neither transmits (counted as
// suppressed, no wire cost, no pool traffic) nor receives (the copy is
// consumed silently, exactly like the Ethernet NIC), and the pool stays
// balanced through both.
func TestDownPortSuppression(t *testing.T) {
	k := sim.New(1)
	fb := New(k, DefaultParams())
	a := fb.AttachPort("a", nil)
	b := fb.AttachPort("b", nil)
	c := fb.AttachPort("c", nil)

	k.After(0, "down sends", func() {
		a.SetDown(true)
		a.Send(b.ID(), []byte{1})
		a.Send(medium.Broadcast, []byte{2})
		a.SetDown(false)
	})
	// A live sender toward a down receiver: the copy pays its wire cost
	// but vanishes at the port, with no ring-drop count.
	k.After(time.Millisecond, "to down port", func() {
		b.SetDown(true)
		a.Send(medium.Broadcast, []byte{3})
	})
	k.Run()

	st := fb.Stats()
	if st.TxSuppressed != 2 {
		t.Fatalf("want 2 suppressed sends, got %d", st.TxSuppressed)
	}
	if a.TxSuppressed() != 2 {
		t.Fatalf("per-port suppression not recorded")
	}
	if st.Frames != 2 || st.FanoutFrames != 2 {
		t.Fatalf("want exactly the live broadcast's 2 copies on the wire, got frames=%d fanout=%d", st.Frames, st.FanoutFrames)
	}
	if st.RingDrops != 0 {
		t.Fatalf("a down port must swallow frames without ring drops, got %d", st.RingDrops)
	}
	if got := drain(b); len(got) != 0 {
		t.Fatalf("down port b queued %d frames", len(got))
	}
	if got := drain(c); len(got) != 1 || got[0][0] != 3 {
		t.Fatalf("live port c got %v, want the tagged broadcast", got)
	}
	poolBalanced(t, fb)
}

// TestBroadcastOverflowGuard is the regression test for fan-out buffer
// lifetime: when an early destination's link is at its transmit bound,
// that copy's drop must not recycle the shared buffer out from under the
// copies still being transmitted to later destinations.
func TestBroadcastOverflowGuard(t *testing.T) {
	p := DefaultParams()
	p.TxQueue = 1
	k := sim.New(1)
	fb := New(k, p)
	a := fb.AttachPort("a", nil)
	b := fb.AttachPort("b", nil)
	c := fb.AttachPort("c", nil)
	k.After(0, "fill then fan out", func() {
		a.Send(b.ID(), []byte("fill")) // a->b link now at its bound
		a.Send(medium.Broadcast, []byte("fan"))
	})
	k.Run()

	st := fb.Stats()
	if st.LinkOverflows != 1 {
		t.Fatalf("want the b copy dropped, got %d overflows", st.LinkOverflows)
	}
	got := drain(c)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("fan")) {
		t.Fatalf("surviving copy corrupted: %q", got)
	}
	if got := drain(b); len(got) != 1 || !bytes.Equal(got[0], []byte("fill")) {
		t.Fatalf("b should hold only the fill frame, got %q", got)
	}
	poolBalanced(t, fb)
}

// TestSeededDeterminism: the same seed must produce byte-identical
// counters across runs, loss rolls included — the property every
// report gate in the tree leans on. Runs under -race in CI.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) medium.Stats {
		p := DefaultParams()
		p.LossRate = 0.3
		p.TxQueue = 2
		k := sim.New(seed)
		fb := New(k, p)
		ports := make([]medium.Port, 5)
		for i := range ports {
			ports[i] = fb.AttachPort("p", nil)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			at := time.Duration(rng.Intn(5000)) * time.Microsecond
			src := rng.Intn(len(ports))
			dst := rng.Intn(len(ports) + 1)
			if dst == len(ports) {
				dst = medium.Broadcast
			}
			size := 1 + rng.Intn(300)
			k.After(at-k.Now(), "op", func() { ports[src].Send(dst, make([]byte, size)) })
		}
		k.Run()
		for _, p := range ports {
			drain(p)
		}
		return fb.Stats()
	}
	first := run(7)
	if again := run(7); !reflect.DeepEqual(first, again) {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", first, again)
	}
	if other := run(8); reflect.DeepEqual(first, other) {
		t.Fatalf("different seeds produced identical traffic — loss rolls not seeded?")
	}
}
