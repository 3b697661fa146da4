package medium_test

import (
	"fmt"
	"time"

	"mether/internal/choice"
	"mether/internal/ethernet"
	"mether/internal/fabric"
	"mether/internal/medium"
	"mether/internal/sim"
)

// A script is what a medium is held to the spec with (spec_test.go): ops
// at rising instants, each made through medium.Medium and medium.Port
// only. One runner plays it on a real medium and on the spec alike.
type script []op

type opKind uint8

const (
	oSend   opKind = iota // port sends size bytes to arg
	oDown                 // port goes down
	oUp                   // port comes back
	oDrain                // port receives and releases up to arg frames, all if 0
	oAttach               // a port is attached with ring bound arg (-1: the medium default); size 1 drains it from its interrupt
	nOps
)

type op struct {
	at        time.Duration
	kind      opKind
	port      int // attach index
	arg, size int
}

// kind is the medium a profile builds: what the spec models it as is
// only bus or fabric.
type kind uint8

const (
	kTopology kind = iota // a one-trunk ethernet.Topology, as every Ethernet world is built
	kBus                  // a lone ethernet.Bus
	kFabric
)

// wire is a medium's parameters, for the real medium and the spec alike.
type wire struct {
	kind             kind
	bw               int64
	delay, gap       time.Duration // propagation or link latency; the bus's inter-frame gap
	overhead, minLen int
	loss             float64
	ring, txq        int
}

func (w wire) medium(k *sim.Kernel) medium.Medium {
	if w.kind == kFabric {
		return fabric.New(k, fabric.Params{BandwidthBps: w.bw, LinkLatency: w.delay, FrameOverhead: w.overhead,
			MinFrameBytes: w.minLen, LossRate: w.loss, RxRing: w.ring, TxQueue: w.txq})
	}
	p := ethernet.Params{BandwidthBps: w.bw, PropDelay: w.delay, FrameOverhead: w.overhead, MinFrameBytes: w.minLen,
		InterFrameGap: w.gap, LossRate: w.loss, RxRing: w.ring}
	if w.kind == kBus {
		return ethernet.NewBus(k, p)
	}
	return ethernet.NewTopology(k, 1, p, ethernet.TopologyConfig{})
}

// cover is the ground a profile's scripts covered: counters read off the
// real medium, frames and sends the spec saw take each path, and rings
// the runner saw grow while wrapped. Behind counts fabric sends that
// found their transmitter busy, mixed those of them that followed a send
// of the other kind (unicast after broadcast or the reverse), each on a
// lossless and a lossy wire.
type cover struct {
	ringDrops, wireLost, suppressed, linkOverflows uint64
	downSkips, lateAttaches, wrapGrows             int
	behind, mixed                                  [2]int // by lossy
}

// player is one play of a script on one medium: the stream of interrupts
// and received frames it leaves, in order.
type player struct {
	k      *sim.Kernel
	m      medium.Medium
	ports  []medium.Port
	stream []string
	// Ring growth seen through MemFootprint: at attach, at the last growth,
	// and frames received since, modulo the old size the head it unwrapped.
	base, last []uint64
	pops       []int
	c          *cover
}

// slotBytes is one ring slot: the buffer reference and two int32
// addresses (TestRingSlotContract pins it).
const slotBytes = 16

func (p *player) attach(o op) {
	i := len(p.ports)
	intr := func() {
		p.log("intr %d", i)
		if fp := p.ports[i].MemFootprint(); fp > p.last[i] {
			if old := int((p.last[i] - p.base[i]) / slotBytes); old > 0 && p.pops[i]%old != 0 {
				p.c.wrapGrows++
			}
			p.last[i], p.pops[i] = fp, 0
		}
		if o.size == 1 {
			p.drain(i, 0)
		}
	}
	name := fmt.Sprint("p", i)
	var port medium.Port
	if o.arg < 0 {
		port = p.m.AttachPort(name, intr)
	} else {
		port = p.m.AttachPortWithRing(name, intr, o.arg)
	}
	fp := port.MemFootprint()
	p.ports, p.base, p.last, p.pops = append(p.ports, port), append(p.base, fp), append(p.last, fp), append(p.pops, 0)
}

func (p *player) log(format string, args ...any) {
	p.stream = append(p.stream, fmt.Sprintf("%v ", p.k.Now())+fmt.Sprintf(format, args...))
}

// drain receives and releases up to n frames of port i (all if 0),
// logging each one's addresses and the bytes it carries at both ends.
func (p *player) drain(i, n int) {
	for got := 0; n == 0 || got < n; got++ {
		f, ok := p.ports[i].Recv()
		if !ok {
			return
		}
		p.pops[i]++
		p.log("rx %d: %d->%d tag %d/%d len %d", i, f.Src, f.Dst, f.Payload[0], f.Payload[len(f.Payload)-1], len(f.Payload))
		p.ports[i].Release(f)
	}
}

// play runs script s on m to quiescence, then drains every port, and
// returns the stream and what else is compared: the clock, every Stats
// field and every port's counters before the last drain.
func play(s script, k *sim.Kernel, m medium.Medium, c *cover) (stream, state []string) {
	p := &player{k: k, m: m, c: c}
	for n, o := range s {
		n, o := n, o
		k.After(o.at-k.Now(), "op", func() {
			switch o.kind {
			case oSend:
				payload := make([]byte, o.size)
				payload[0], payload[o.size-1] = byte(n), byte(n)
				p.ports[o.port].Send(o.arg, payload)
			case oDown, oUp:
				p.ports[o.port].SetDown(o.kind == oDown)
			case oDrain:
				p.drain(o.port, o.arg)
			case oAttach:
				p.attach(o)
			}
		})
	}
	state = append(state, fmt.Sprint("ended ", k.Run()), fmt.Sprint("events ", k.Dispatched()), fmt.Sprintf("%+v", m.Stats()))
	for i, q := range p.ports {
		state = append(state, fmt.Sprintf("port %d %s: id %d pending %d drops %d suppressed %d high %d cap %d down %v",
			i, q.Name(), q.ID(), q.Pending(), q.Drops(), q.TxSuppressed(), q.RingHighWater(), q.RingCap(), q.Down()))
	}
	for i := range p.ports {
		p.drain(i, 0)
	}
	return p.stream, state
}

// check plays s on the profile's real medium and on the spec, each on a
// kernel seeded with seed, and returns the first difference in the stream
// or the state, or a pool buffer not back once every frame is released.
func check(w wire, s script, seed int64, c *cover) error {
	k := sim.New(seed)
	defer k.Shutdown()
	m := w.medium(k)
	got, gotState := play(s, k, m, c)
	ref := &spec{k: sim.New(seed), w: w, c: c}
	defer ref.k.Shutdown()
	want, wantState := play(s, ref.k, ref, &cover{})
	if i := choice.Diverge(got, want); i >= 0 {
		return fmt.Errorf("the stream diverges at line %d:\nmedium %q\nspec   %q", i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
	}
	if i := choice.Diverge(gotState, wantState); i >= 0 {
		return fmt.Errorf("medium %s\n  spec %s", gotState[i], wantState[i])
	}
	if alloc, free := m.PoolStats(); alloc != free {
		return fmt.Errorf("%d buffers allocated, %d free once every frame is released", alloc, free)
	}
	st := m.Stats()
	c.ringDrops += st.RingDrops
	c.wireLost += st.WireLost
	c.suppressed += st.TxSuppressed
	c.linkOverflows += st.LinkOverflows
	return nil
}
