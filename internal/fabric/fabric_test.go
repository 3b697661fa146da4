package fabric

import (
	"fmt"
	"testing"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// The medium contract, the transmit queues, per-copy loss and late
// attaches among it, is held to the reference medium by
// TestMediumMatchesSpec (internal/medium). The cases here are worked
// examples: written instants, counters and buffer identities.

// fabricOf attaches n ports to a fabric with p; at[i] records the
// instants port i's interrupt fired.
func fabricOf(p Params, n int) (k *sim.Kernel, fb *Fabric, ports []medium.Port, at [][]time.Duration) {
	k = sim.New(1)
	fb = New(k, p)
	at = make([][]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		ports = append(ports, fb.AttachPort(fmt.Sprint("p", i), func() { at[i] = append(at[i], k.Now()) }))
	}
	return k, fb, ports, at
}

// recv drains a port, releasing every frame, and returns "src->dst
// payload" for each.
func recv(p medium.Port) (got []string) {
	for f, ok := p.Recv(); ok; f, ok = p.Recv() {
		got = append(got, fmt.Sprintf("%d->%d %s", f.Src, f.Dst, f.Payload))
		p.Release(f)
	}
	return got
}

// check fails unless got prints as want and every buffer is back.
func check(t *testing.T, fb *Fabric, what string, got any, want string) {
	t.Helper()
	if g := fmt.Sprint(got); g != want {
		t.Errorf("%s = %s, want %s", what, g, want)
	}
	if alloc, free := fb.PoolStats(); alloc != free {
		t.Errorf("%d buffers allocated, %d free", alloc, free)
	}
}

// view is a decode-once view that one receiver attaches.
type view struct{}

func (*view) Invalidate() {}

// A broadcast is one copy per other port, each stamped with its
// destination, all on one buffer, so a view one receiver attaches is
// every copy's; a unicast to the sender or to an id nobody holds costs
// nothing.
func TestBroadcastFanout(t *testing.T) {
	k, fb, ports, _ := fabricOf(DefaultParams(), 4)
	for _, dst := range []int{0, 4, -7, medium.Broadcast} {
		ports[0].Send(dst, []byte("hello"))
	}
	k.Run()
	f1, _ := ports[1].Recv()
	f3, _ := ports[3].Recv()
	v := new(view)
	f1.SetView(v)
	shared := f1.Buf == f3.Buf && f3.View() == v
	ports[1].Release(f1)
	ports[3].Release(f3)
	f2, _ := ports[2].Recv()
	at2 := fmt.Sprintf("%d->%d %s, view shared %v", f2.Src, f2.Dst, f2.Payload, f2.View() == v)
	ports[2].Release(f2)
	st := fb.Stats()
	check(t, fb, "frames, fan-out, shared, at 0 and 2", []any{st.Frames, st.FanoutFrames, shared, recv(ports[0]), at2},
		"[3 3 true [] 0->2 hello, view shared true]")
}

// At most TxQueue sends are in flight on a port's transmitter; the rest
// are dropped unbilled and their references released.
func TestLinkQueueOverflow(t *testing.T) {
	p := DefaultParams()
	p.TxQueue = 2
	k, fb, ports, _ := fabricOf(p, 2)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		ports[0].Send(1, []byte(s))
	}
	k.Run()
	st := fb.Stats()
	check(t, fb, "overflows, frames, max queued, received", []any{st.LinkOverflows, st.Frames, st.LinkMaxQueued, recv(ports[1])},
		"[3 2 2 [0->1 a 0->1 b]]")
}

// A port's sends serialize behind each other, whatever their kind: 512ns
// each at 1 Gb/s, then 2µs. The broadcast's copies leave together, and
// the unicast after it waits for it; another port's frame waits for
// none of them.
func TestLinkFIFOSerialization(t *testing.T) {
	k, fb, ports, at := fabricOf(DefaultParams(), 3)
	ports[0].Send(1, []byte("a"))
	ports[0].Send(medium.Broadcast, []byte("b"))
	ports[0].Send(1, []byte("c"))
	ports[2].Send(1, []byte("d"))
	k.Run()
	check(t, fb, "arrivals at 1 and 2", []any{at[1], recv(ports[1]), at[2], recv(ports[2])},
		"[[2.512µs 2.512µs 3.024µs 3.536µs] [0->1 a 2->1 d 0->1 b 0->1 c] [3.024µs] [0->2 b]]")
}

// Loss is rolled per copy, and a lost copy releases its reference.
func TestPerLinkLoss(t *testing.T) {
	p := DefaultParams()
	p.LossRate = 1
	k, fb, ports, _ := fabricOf(p, 4)
	ports[0].Send(medium.Broadcast, []byte("doomed"))
	k.Run()
	st := fb.Stats()
	check(t, fb, "lost, frames, pending", []any{st.WireLost, st.Frames, ports[1].Pending() + ports[2].Pending() + ports[3].Pending()}, "[3 3 0]")
}

// A down port's sends are counted and go nowhere; a copy to a down port
// is billed and vanishes without a ring drop.
func TestDownPortSuppression(t *testing.T) {
	k, fb, ports, _ := fabricOf(DefaultParams(), 3)
	ports[0].SetDown(true)
	ports[0].Send(1, []byte("1"))
	ports[0].Send(medium.Broadcast, []byte("2"))
	ports[0].SetDown(false)
	ports[1].SetDown(true)
	ports[0].Send(medium.Broadcast, []byte("3"))
	k.Run()
	st := fb.Stats()
	check(t, fb, "suppressed, frames, fan-out, drops, at 1 and 2", []any{st.TxSuppressed, ports[0].TxSuppressed(), st.Frames, st.FanoutFrames, st.RingDrops, recv(ports[1]), recv(ports[2])},
		"[2 2 2 2 0 [] [0->2 3]]")
}

// A full transmitter overflows the whole broadcast: every copy is counted
// and none is billed or sent, while the send ahead of it still lands.
func TestBroadcastOverflowGuard(t *testing.T) {
	p := DefaultParams()
	p.TxQueue = 1
	k, fb, ports, _ := fabricOf(p, 3)
	ports[0].Send(1, []byte("fill"))
	ports[0].Send(medium.Broadcast, []byte("fan"))
	k.Run()
	st := fb.Stats()
	check(t, fb, "overflows, frames, fan-out, at 1 and 2", []any{st.LinkOverflows, st.Frames, st.FanoutFrames, recv(ports[1]), recv(ports[2])},
		"[2 1 0 [0->1 fill] []]")
}

// The same seed gives the same counters, loss rolls included; another
// seed does not.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) medium.Stats {
		p := DefaultParams()
		p.LossRate, p.TxQueue = 0.3, 2
		k := sim.New(seed)
		fb := New(k, p)
		for i := 0; i < 5; i++ {
			fb.AttachPort("p", nil)
		}
		for i := 0; i < 200; i++ {
			i := i
			k.After(time.Duration(i%7)*time.Microsecond, "send", func() { fb.ports[i%5].Send(medium.Broadcast, make([]byte, 1+i)) })
		}
		k.Run()
		return fb.Stats()
	}
	if a, b, c := run(7), run(7), run(8); a != b || a == c {
		t.Errorf("seed 7 gave %+v then %+v, seed 8 %+v", a, b, c)
	}
}
