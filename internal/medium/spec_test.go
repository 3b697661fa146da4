package medium_test

import (
	"bytes"
	"testing"
	"time"

	"mether/internal/choice"
	"mether/internal/ethernet"
	"mether/internal/fabric"
	"mether/internal/medium"
	"mether/internal/sim"
)

// TestMediumMatchesSpec holds Ethernet and the fabric to spec, the
// reference medium below, on randomized scripts (script_test.go) played
// through medium.Medium and medium.Port: the stream of interrupts and
// received frames, the clock, the events the kernel ran (Dispatched),
// every Stats field and every port's counters must agree, and every pool
// buffer must be back once the frames are released. Each profile must
// cover its floor of ground. A failing seed's tape is shrunk and printed
// as a FuzzMedium corpus file (testdata/fuzz holds one). Bridges are
// outside the spec: bridge_test.go and topology_test.go keep them.
//
// Each mutation below, made to a copy of the media, fails the profiles
// listed at the first seed given, whose tape (bytes drawn, its profile,
// kernel seed and op count ahead) shrinks as shown, and the kept tests
// named. The fabric profile plays its even seeds lossless: the per-pair
// row below passes every lossy seed, and with the lossless half taken
// away it fails only the profile's floor, which asks for sends behind a
// busy transmitter, and unicasts mixed with broadcasts, on both halves.
//
//	bus: no in-flight reference, recycled at Refs 1      ethernet 1, ethernet-deep 1  818→3   TestViewSharedAndRecycled, 5 more
//	fabric: one loss roll per broadcast                  fabric 1                     929→15
//	an interrupt raised for a dropped frame              all three 1                  818→7   TestStationDropsAtExactCapacity
//	a down station still takes frames                    all three 1                  818→31  TestStationDown, 3 more
//	a ring that grows without unwrapping                 ethernet-deep 1              823→20  TestStationFIFOAcrossWrappedGrow
//	ring: the bound admits one frame more                all three 1 (a panic)        818→7   TestRxRingOverflowDrops, 7 more
//	a suppressed send not counted                        all three 1                  818→30  TestDownNICCountsSuppressedSends, 3 more
//	stats: ring high water summed, not maxed             all three 1                  818→4   TestStationHighWater
//	bus: no inter-frame gap                              ethernet 1, ethernet-deep 1  818→3   TestBackToBackFramesSerialize
//	bus: a unicast to the sender delivered               ethernet 1, ethernet-deep 1  818→13  TestUnicastEdgeAddresses
//	bus: loss rolled for broadcasts only                 ethernet 1, ethernet-deep 1  818→13  TestWireLossDropsFrameEverywhere
//	bus: receivers fixed at send, not at landing         ethernet 1, ethernet-deep 1  818→50
//	fabric: a send never leaves its transmitter          fabric 1                     929→23  TestSeededDeterminism
//	fabric: an overflowed broadcast billed as fan-out    fabric 3                     939→3   TestBroadcastOverflowGuard, FuzzMedium
//	fabric: a landed send keeps its reference            fabric 1                     929→3   TestFanoutAllocatesNothing, 6 more
//	fabric: a unicast to the sender sent                 fabric 1                     929→15  TestBroadcastFanout
//	ring: Pop swaps a slot's src and dst                 all three 1                  818→3   TestRingSlotContract, 14 more
//	fabric: a fused record counted as one callback       fabric 1                     929→4
//	fabric: a unicast not serialized behind its port's   fabric 5                     912→18  TestLinkFIFOSerialization
//	  broadcast
//	fabric: one horizon shared by all ports              fabric 1                     929→11  TestLinkFIFOSerialization
//	fabric: an overflowed broadcast counted once, not    fabric 3                     939→4   TestBroadcastOverflowGuard
//	  per copy
//	fabric: loss rolled for the sender's own slot too    fabric 1                     929→3   TestSeededDeterminism
//	fabric: a broadcast lands ports attached after its   fabric 1 (a panic)           929→16
//	  send
//	fabric: lossless broadcasts on the port's            fabric 4                     950→26  TestLinkFIFOSerialization, TestBroadcastOverflowGuard
//	  transmitter, unicasts on per-pair links
//	fabric: a queued send's horizon counted from its     —                                    TestLinkFIFOSerialization
//	  send time
func TestMediumMatchesSpec(t *testing.T) {
	for i := range profiles {
		p := &profiles[i]
		t.Run(p.name, func(t *testing.T) {
			var c cover
			for seed := 1; seed <= p.seeds; seed++ {
				tp := choice.Seeded(int64(seed))
				seeded := func(tp *choice.Tape) error {
					return check(p.wire(int64(seed)), p.script(tp.Choose, p.ops), int64(seed), &c)
				}
				if err := choice.Run(tp, seeded); err != nil {
					drawn := choice.Put(choice.Put(choice.Put(nil, len(profiles), i), 256, seed), p.ops, p.ops-1)
					t.Fatalf("seed %d: %v\n%s", seed, err, choice.Explain("FuzzMedium", append(drawn, tp.Bytes()...), fuzz))
				}
			}
			t.Logf("%d scripts: %+v", p.seeds, c)
			if !p.floor(&c) {
				t.Errorf("%d scripts covered too little ground: %+v", p.seeds, c)
			}
		})
	}
}

// FuzzMedium plays the script its input draws as a choice tape
// (internal/choice).
func FuzzMedium(f *testing.F) {
	for _, in := range []string{"", "\x00\x03\x01", "\x01\x05\x02\x00\x00\x07", "\x02\x04\x00\x00\x00\x00\x00\x09\x01", "\x02\xff\x10\x80\x03"} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := choice.Run(choice.New(in), fuzz); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzz plays the script a tape draws after its profile, kernel seed and
// op count, which a seeded run fixes outside its tape.
func fuzz(tp *choice.Tape) error {
	p := &profiles[tp.Choose(len(profiles))]
	seed := int64(tp.Choose(256))
	return check(p.wire(seed), p.script(tp.Choose, 1+tp.Choose(p.ops)), seed, &cover{})
}

// profile is a kind of randomized script: the medium it is played on,
// what its ops are drawn from, and the ground its seeds must cover.
type profile struct {
	name       string
	w          wire
	seeds, ops int
	rings      []int         // bounds a port is attached with; -1 is the medium default
	unit       time.Duration // three ops in four are 1 to steps units after the last, the rest at its instant
	steps      int
	size       int       // payloads are 1 to size bytes
	weights    [nOps]int // by op kind
	eager      int       // one port in eager drains from its interrupt
	drain      int       // a drain takes 1 to drain frames, or all half the time
	lossless   bool      // even seeds play w without loss
	floor      func(c *cover) bool
}

// wire is the medium a seed plays on.
func (p *profile) wire(seed int64) wire {
	w := p.w
	if p.lossless && seed%2 == 0 {
		w.loss = 0
	}
	return w
}

const maxPorts = 10

func ethWire(k kind, ring int) wire {
	p := ethernet.DefaultParams()
	return wire{kind: k, bw: p.BandwidthBps, delay: p.PropDelay, gap: p.InterFrameGap, overhead: p.FrameOverhead,
		minLen: p.MinFrameBytes, loss: 0.2, ring: ring}
}

func fabWire(ring, txq int) wire {
	p := fabric.DefaultParams()
	return wire{kind: kFabric, bw: p.BandwidthBps, delay: p.LinkLatency, overhead: p.FrameOverhead,
		minLen: p.MinFrameBytes, loss: 0.2, ring: ring, txq: txq}
}

// every is the floor of every profile.
func every(c *cover) bool {
	return c.ringDrops > 0 && c.wireLost > 0 && c.suppressed > 0 && c.downSkips > 0
}

var profiles = [...]profile{{
	// The medium every Ethernet world is built on: shallow rings, loss,
	// ports draining from their interrupt as the server does.
	name: "ethernet", w: ethWire(kTopology, 4), seeds: 25, ops: 150,
	rings: []int{-1, 0, 1, 2, 3, 5}, unit: 10 * time.Microsecond, steps: 40, size: 200,
	weights: [nOps]int{oSend: 12, oDown: 1, oUp: 2, oDrain: 4, oAttach: 1}, eager: 3, drain: 3,
	floor: every,
}, {
	// Rings past the first 8-slot growth, drained a few frames at a time,
	// so they fill and grow while wrapped.
	name: "ethernet-deep", w: ethWire(kBus, 16), seeds: 25, ops: 150,
	rings: []int{-1, 9, 12, 17, 24, 40}, unit: 10 * time.Microsecond, steps: 30, size: 120,
	weights: [nOps]int{oSend: 14, oDown: 1, oUp: 2, oDrain: 3, oAttach: 1}, drain: 5,
	floor: func(c *cover) bool { return every(c) && c.wrapGrows > 0 },
}, {
	// Two-send transmit queues under same-instant broadcasts, unicasts
	// and broadcasts from one port inside one transmission time, ports
	// attached while broadcasts are in flight, and half the seeds
	// lossless, where no loss is rolled: each kind of send behind a busy
	// transmitter, with loss and without.
	name: "fabric", w: fabWire(4, 2), seeds: 25, ops: 150,
	rings: []int{-1, 1, 2, 3, 5}, unit: 100 * time.Nanosecond, steps: 30, size: 300,
	weights: [nOps]int{oSend: 12, oDown: 1, oUp: 2, oDrain: 4, oAttach: 2}, eager: 3, drain: 3, lossless: true,
	floor: func(c *cover) bool {
		return every(c) && c.linkOverflows > 0 && c.lateAttaches > 0 &&
			min(c.behind[0], c.behind[1], c.mixed[0], c.mixed[1]) > 0
	},
}}

// script draws ops ops of the profile from choose, which returns a choice
// in [0, n): two to five ports attached at zero, then ops at rising
// instants. A send is a broadcast six times in ten, else a unicast to an
// attached port (the sender itself among them), the sender, or an id
// nobody holds.
func (p *profile) script(choose func(n int) int, ops int) script {
	var s script
	var at time.Duration
	ports, total := 0, 0
	for _, w := range p.weights {
		total += w
	}
	attach := func() {
		o := op{at: at, kind: oAttach, arg: p.rings[choose(len(p.rings))]}
		if p.eager > 0 && choose(p.eager) == 0 {
			o.size = 1
		}
		s = append(s, o)
		ports++
	}
	for n := 2 + choose(4); n > 0; n-- {
		attach()
	}
	for len(s) < ops {
		if choose(4) > 0 {
			at += p.unit * time.Duration(1+choose(p.steps))
		}
		k, x := opKind(0), choose(total)
		for ; x >= p.weights[k]; k++ {
			x -= p.weights[k]
		}
		if k == oAttach {
			if ports < maxPorts {
				attach()
			}
			continue
		}
		o := op{at: at, kind: k, port: choose(ports)}
		switch k {
		case oSend:
			o.size = 1 + choose(p.size)
			switch r := choose(10); {
			case r < 6:
				o.arg = medium.Broadcast
			case r < 8:
				o.arg = choose(ports)
			case r < 9:
				o.arg = o.port
			default:
				o.arg = []int{ports, ports + 1, -2}[choose(3)]
			}
		case oDrain:
			if choose(2) == 0 {
				o.arg = 1 + choose(p.drain)
			}
		}
		s = append(s, o)
	}
	return s
}

// spec is the reference medium: the contract Ethernet and the fabric are
// held to, written to be read rather than to be fast. A ring is a slice,
// a payload a fresh copy, a delivery one plain kernel event per frame or
// copy; there is no pool, refcount, freelist or delivery record. Each
// rule is stated once, where it is marked.
type spec struct {
	k     *sim.Kernel
	w     wire
	c     *cover
	ports []*specPort
	st    medium.Stats // the wire's counters; Stats folds the ports' in
	free  time.Duration
}

type specPort struct {
	s                 *spec
	id                int
	name              string
	intr              func()
	ring              []medium.Frame
	bound, high       int
	drops, suppressed uint64
	down              bool
	// The fabric transmitter: when it is free, its sends in flight, and
	// whether the last send it took was a broadcast.
	txFree     time.Duration
	txInFlight int
	txBcast    bool
}

func (s *spec) AttachPort(name string, intr func()) medium.Port {
	return s.AttachPortWithRing(name, intr, s.w.ring)
}

// Rule: ids are dense in attach order; a negative bound refuses
// everything.
func (s *spec) AttachPortWithRing(name string, intr func(), ringCap int) medium.Port {
	p := &specPort{s: s, id: len(s.ports), name: name, intr: intr, bound: max(ringCap, 0)}
	s.ports = append(s.ports, p)
	return p
}

// Rule: drops and suppressed sends are the ports' summed, the ring high
// water their maximum.
func (s *spec) Stats() medium.Stats {
	st := s.st
	for _, p := range s.ports {
		st.RingDrops += p.drops
		st.TxSuppressed += p.suppressed
		st.RingHighWater = max(st.RingHighWater, p.high)
	}
	return st
}

func (s *spec) MemFootprint() uint64             { return 0 }
func (s *spec) PoolStats() (allocated, free int) { return 0, 0 }
func (p *specPort) ID() int                      { return p.id }
func (p *specPort) Name() string                 { return p.name }
func (p *specPort) Release(medium.Frame)         {}
func (p *specPort) SetDown(down bool)            { p.down = down }
func (p *specPort) Down() bool                   { return p.down }
func (p *specPort) Pending() int                 { return len(p.ring) }
func (p *specPort) Drops() uint64                { return p.drops }
func (p *specPort) TxSuppressed() uint64         { return p.suppressed }
func (p *specPort) RingHighWater() int           { return p.high }
func (p *specPort) RingCap() int                 { return p.bound }
func (p *specPort) MemFootprint() uint64         { return 0 }

// Rx: the reference keeps its ring in a slice, not a Station, and the
// runner drains every port through Recv.
func (p *specPort) Rx() *medium.Station { return nil }

func (p *specPort) Recv() (f medium.Frame, ok bool) {
	if len(p.ring) == 0 {
		return f, false
	}
	f, p.ring = p.ring[0], p.ring[1:]
	return f, true
}

// Send. Rule: a down port's send is counted and goes nowhere. On the bus
// every frame takes the wire; on the fabric a broadcast is one copy per
// other port attached, ascending, and a unicast to the sender or to an id
// nobody holds costs nothing.
func (p *specPort) Send(dst int, payload []byte) {
	s := p.s
	if p.down {
		p.suppressed++
		return
	}
	f := medium.Frame{Src: p.id, Dst: dst, Payload: bytes.Clone(payload)}
	switch {
	case s.w.kind != kFabric:
		s.bus(f)
	case dst == medium.Broadcast && len(s.ports) > 1, dst >= 0 && dst < len(s.ports) && dst != p.id:
		p.fabric(f)
	}
}

// bus: Rule: one wire. A frame starts when the wire is free, holds it for
// its transmission time and the inter-frame gap, is rolled for loss once
// and lands a propagation delay after its last bit, at every port
// attached by then, in attach order: all but the sender for a broadcast,
// else the one whose id it carries if that is not the sender.
func (s *spec) bus(f medium.Frame) {
	start := max(s.k.Now(), s.free)
	dur := s.transmit(len(f.Payload))
	s.free = start + dur + s.w.gap
	lost := s.roll()
	s.k.After(start+dur+s.w.delay-s.k.Now(), "bus", func() {
		if lost {
			s.st.WireLost++
			return
		}
		for _, q := range s.ports {
			if q.id != f.Src && (f.Dst == medium.Broadcast || f.Dst == q.id) {
				q.deliver(f)
			}
		}
	})
}

// fabric: Rule: each port has one transmitter holding at most TxQueue
// sends in flight. A send past the bound is dropped on the spot, each of
// its copies counted as an overflow, unbilled and unrolled. One within it
// starts when the transmitter is free and holds it for one transmission
// time. Its copies go to the port it names, or for a broadcast to every
// other port attached now, ascending. Each is billed (a broadcast's as
// fan-out too) and rolled for loss on its own, and lands the link latency
// after the last bit, stamped with its destination. The send leaves the
// transmitter as its copies land.
func (p *specPort) fabric(f medium.Frame) {
	s, c := p.s, p.s.c
	var to []int
	for _, q := range s.ports {
		if q != p && (f.Dst == medium.Broadcast || f.Dst == q.id) {
			to = append(to, q.id)
		}
	}
	if p.txInFlight >= s.w.txq {
		s.st.LinkOverflows += uint64(len(to))
		return
	}
	now, bcast := s.k.Now(), f.Dst == medium.Broadcast
	half := 0 // the cover's lossless half; 1 is its lossy one
	if s.w.loss > 0 {
		half = 1
	}
	if now < p.txFree {
		c.behind[half]++
		if bcast != p.txBcast {
			c.mixed[half]++
		}
	}
	p.txInFlight++
	p.txBcast = bcast
	s.st.LinkMaxQueued = max(s.st.LinkMaxQueued, p.txInFlight)
	start := max(now, p.txFree)
	attached := len(s.ports)
	for i, dst := range to {
		f.Dst = dst
		dur := s.transmit(len(f.Payload))
		p.txFree = start + dur // every copy takes the same time
		if bcast {
			s.st.FanoutFrames++
		}
		first, lost, f := i == 0, s.roll(), f
		s.k.After(start+dur+s.w.delay-now, "copy", func() {
			if first {
				p.txInFlight--
				if bcast && len(s.ports) > attached {
					c.lateAttaches++
				}
			}
			if lost {
				s.st.WireLost++
				return
			}
			s.ports[f.Dst].deliver(f)
		})
	}
}

// transmit bills one frame of n payload bytes and returns its
// transmission time. Rule: a frame carries the overhead on the wire and
// is padded to the minimum length.
func (s *spec) transmit(n int) time.Duration {
	wire := max(n+s.w.overhead, s.w.minLen)
	dur := time.Duration(int64(wire) * 8 * int64(time.Second) / s.w.bw)
	s.st.Frames++
	s.st.WireBytes += uint64(wire)
	s.st.PayloadBytes += uint64(n)
	s.st.BusyTime += dur
	return dur
}

func (s *spec) roll() bool { return s.w.loss > 0 && s.k.Rand().Float64() < s.w.loss }

// deliver. Rule: a down port takes nothing and counts nothing; a full ring
// drops the frame, counts it and raises nothing; else the frame is
// queued and the interrupt raised.
func (p *specPort) deliver(f medium.Frame) {
	switch {
	case p.down:
		p.s.c.downSkips++
	case len(p.ring) >= p.bound:
		p.drops++
	default:
		p.ring = append(p.ring, f)
		p.high = max(p.high, len(p.ring))
		p.intr()
	}
}
