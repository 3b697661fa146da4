package ethernet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mether/internal/sim"
)

// The delivery fast path's proof obligation: indexed unicast dispatch
// plus coalesced interrupt wakeups must be observation-identical to the
// original implementation — an O(stations) receiver scan per frame and
// one kernel event per receiver interrupt. This file pits the real Bus
// against refSegment, a from-scratch reimplementation of those original
// semantics, under adversarial random interleavings of unicast,
// broadcast, down/up transitions, wire loss and ring drains, and
// requires identical receive rings, interrupt dispatch order and
// counters.

// refSegment replays the pre-index semantics: every delivery scans all
// stations, every payload is a fresh copy, every interrupt is its own
// kernel event.
type refSegment struct {
	k         *sim.Kernel
	p         Params
	nics      []*refNIC
	busyUntil time.Duration
	frames    uint64
	wireLost  uint64
}

type refNIC struct {
	seg          *refSegment
	id           int
	ring         []refFrame
	head, count  int
	intr         func()
	down         bool
	drops        uint64
	txSuppressed uint64
}

type refFrame struct {
	src, dst int
	payload  []byte
}

func newRefSegment(k *sim.Kernel, p Params) *refSegment {
	return &refSegment{k: k, p: p}
}

func (s *refSegment) attach(intr func()) *refNIC {
	n := &refNIC{seg: s, id: len(s.nics), intr: intr, ring: make([]refFrame, s.p.RxRing)}
	s.nics = append(s.nics, n)
	return n
}

func (n *refNIC) send(dst int, payload []byte) {
	if n.down {
		n.txSuppressed++
		return
	}
	s := n.seg
	buf := append([]byte(nil), payload...)
	wire := len(payload) + s.p.FrameOverhead
	if wire < s.p.MinFrameBytes {
		wire = s.p.MinFrameBytes
	}
	start := s.k.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	dur := time.Duration(int64(wire) * 8 * int64(time.Second) / s.p.BandwidthBps)
	s.busyUntil = start + dur + s.p.InterFrameGap
	s.frames++
	lost := s.p.LossRate > 0 && s.k.Rand().Float64() < s.p.LossRate
	f := refFrame{src: n.id, dst: dst, payload: buf}
	s.k.After(start+dur+s.p.PropDelay-s.k.Now(), "ref deliver", func() {
		if lost {
			s.wireLost++
			return
		}
		// The original shape: scan every station for every frame.
		for _, rx := range s.nics {
			if rx.id == f.src {
				continue
			}
			if f.dst != Broadcast && f.dst != rx.id {
				continue
			}
			rx.deliver(f)
		}
	})
}

func (n *refNIC) deliver(f refFrame) {
	if n.down {
		return
	}
	if n.count >= len(n.ring) {
		n.drops++
		return
	}
	n.ring[(n.head+n.count)%len(n.ring)] = f
	n.count++
	if n.intr != nil {
		n.intr()
	}
}

func (n *refNIC) recv() (refFrame, bool) {
	if n.count == 0 {
		return refFrame{}, false
	}
	f := n.ring[n.head]
	n.ring[n.head] = refFrame{}
	n.head = (n.head + 1) % len(n.ring)
	n.count--
	return f, true
}

// diffOp is one scripted action, applied identically to both worlds.
type diffOp struct {
	at   time.Duration
	kind int // 0 send, 1 down, 2 up, 3 drain
	nic  int
	dst  int
	size int
	tag  byte
}

// obs is one observable: an interrupt firing or a drained frame.
type obs struct {
	at   time.Duration
	what string
}

// TestDeliveryDifferential scripts random op sequences and requires the
// real Bus (indexed unicast, coalesced wakeups) and the reference
// (scan everything, one event per interrupt) to produce identical
// observation streams and counters.
func TestDeliveryDifferential(t *testing.T) {
	const (
		nics      = 6
		ops       = 120
		intrDelay = 300 * time.Microsecond
	)
	params := DefaultParams()
	params.RxRing = 4      // small enough that overflow drops happen
	params.LossRate = 0.25 // wire loss consumes RNG draws on both sides

	script := func(seed int64) []diffOp {
		rng := rand.New(rand.NewSource(seed))
		var sc []diffOp
		at := time.Duration(0)
		for i := 0; i < ops; i++ {
			at += time.Duration(rng.Intn(2000)) * time.Microsecond
			op := diffOp{at: at, nic: rng.Intn(nics), tag: byte(i)}
			switch r := rng.Intn(10); {
			case r < 5: // send: broadcast, unicast, self, or unattached id
				op.kind = 0
				switch rng.Intn(5) {
				case 0:
					op.dst = Broadcast
				case 1:
					op.dst = op.nic // self: reaches no one
				case 2:
					op.dst = nics + rng.Intn(3) // unattached id
				default:
					op.dst = rng.Intn(nics)
				}
				op.size = 1 + rng.Intn(200)
			case r < 7:
				op.kind = 1 // down
			case r < 9:
				op.kind = 2 // up
			default:
				op.kind = 3 // drain
			}
			sc = append(sc, op)
		}
		return sc
	}

	runReal := func(seed int64, sc []diffOp) ([]obs, []uint64) {
		k := sim.New(seed)
		b := NewBus(k, params)
		var log []obs
		rx := make([]*NIC, nics)
		for i := 0; i < nics; i++ {
			i := i
			fire := func() { log = append(log, obs{k.Now(), fmt.Sprintf("intr %d", i)}) }
			// The driver shape: the NIC interrupt arms a fixed-latency
			// coalescible wakeup with a prebuilt closure.
			rx[i] = b.Attach("n", func() { k.AfterCoalesced(intrDelay, "intr", fire) })
		}
		drain := func(i int) {
			for {
				f, ok := rx[i].Recv()
				if !ok {
					return
				}
				log = append(log, obs{k.Now(), fmt.Sprintf("rx %d: %d->%d tag %d len %d", i, f.Src, f.Dst, f.Payload[0], len(f.Payload))})
				rx[i].Release(f)
			}
		}
		for _, op := range sc {
			op := op
			k.After(op.at-k.Now(), "op", func() {
				switch op.kind {
				case 0:
					buf := make([]byte, op.size)
					buf[0] = op.tag
					rx[op.nic].Send(op.dst, buf)
				case 1:
					rx[op.nic].SetDown(true)
				case 2:
					rx[op.nic].SetDown(false)
				case 3:
					drain(op.nic)
				}
			})
		}
		k.Run()
		for i := 0; i < nics; i++ {
			drain(i) // final ring contents become part of the stream
		}
		st := b.Stats()
		return log, []uint64{st.Frames, st.WireLost, st.RingDrops, st.TxSuppressed}
	}

	runRef := func(seed int64, sc []diffOp) ([]obs, []uint64) {
		k := sim.New(seed)
		s := newRefSegment(k, params)
		var log []obs
		rx := make([]*refNIC, nics)
		for i := 0; i < nics; i++ {
			i := i
			fire := func() { log = append(log, obs{k.Now(), fmt.Sprintf("intr %d", i)}) }
			rx[i] = s.attach(func() { k.After(intrDelay, "intr", fire) })
		}
		drain := func(i int) {
			for {
				f, ok := rx[i].recv()
				if !ok {
					return
				}
				log = append(log, obs{k.Now(), fmt.Sprintf("rx %d: %d->%d tag %d len %d", i, f.src, f.dst, f.payload[0], len(f.payload))})
			}
		}
		for _, op := range sc {
			op := op
			k.After(op.at-k.Now(), "op", func() {
				switch op.kind {
				case 0:
					buf := make([]byte, op.size)
					buf[0] = op.tag
					rx[op.nic].send(op.dst, buf)
				case 1:
					rx[op.nic].down = true
				case 2:
					rx[op.nic].down = false
				case 3:
					drain(op.nic)
				}
			})
		}
		k.Run()
		for i := 0; i < nics; i++ {
			drain(i)
		}
		var drops, sup uint64
		for _, n := range rx {
			drops += n.drops
			sup += n.txSuppressed
		}
		return log, []uint64{s.frames, s.wireLost, drops, sup}
	}

	for seed := int64(1); seed <= 25; seed++ {
		sc := script(seed)
		gotLog, gotStats := runReal(seed, sc)
		wantLog, wantStats := runRef(seed, sc)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("seed %d: counters diverge: real %v, reference %v", seed, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			max := len(gotLog)
			if len(wantLog) < max {
				max = len(wantLog)
			}
			for i := 0; i < max; i++ {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d: observation %d diverges:\n real %v %s\n  ref %v %s",
						seed, i, gotLog[i].at, gotLog[i].what, wantLog[i].at, wantLog[i].what)
				}
			}
			t.Fatalf("seed %d: stream lengths diverge: real %d, reference %d", seed, len(gotLog), len(wantLog))
		}
	}
}
