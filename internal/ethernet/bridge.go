package ethernet

import (
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// Bridge connects two segments the way the paper's multi-trunk Ethernet
// does: frames arriving on one segment are queued and re-transmitted on
// the other after a store-and-forward delay that depends on queue depth.
//
// The paper uses exactly this topology to argue that global consistency
// is untenable: "Two hosts on different trunks can issue purges. Which
// purge goes out first depends on the depth of the queues in the hosts
// and the bridges, which in turn depends on background network traffic
// on each branch." The bridge model lets tests demonstrate that hosts on
// different trunks can observe the same pair of purges in opposite
// orders — the impossibility result motivating Mether's design.
type Bridge struct {
	k        *sim.Kernel
	a, b     *Bus
	aPort    *NIC
	bPort    *NIC
	delay    time.Duration
	aBacklog time.Duration // extra queueing toward segment A
	bBacklog time.Duration // extra queueing toward segment B
	// partitioned marks the bridge as down: both ports stop receiving,
	// and any store-and-forward still in flight is dropped when its
	// timer fires instead of delivering stale pre-partition traffic
	// after a heal.
	partitioned bool

	stats BridgeStats
	// freeFwd pools in-flight forward records (frame + prebuilt closure)
	// so steady-state store-and-forward traffic does not allocate, like
	// the Bus delivery pool.
	freeFwd medium.Freelist[bridgeFwd]
}

// bridgeFwd is one pooled store-and-forward in flight.
type bridgeFwd struct {
	br       *Bridge
	from, to *NIC
	f        medium.Frame
	fn       func()
}

// BridgeStats aggregates the store-and-forward counters of one bridge
// (or, via Topology.BridgeStats, of every bridge in a topology). The
// occupancy pair makes the paper's "depth of the queues in the bridges"
// observable rather than assumed.
type BridgeStats struct {
	// Forwarded counts frames relayed onto the other segment.
	Forwarded uint64
	// Queued is the current store-and-forward occupancy: frames received
	// but not yet re-transmitted.
	Queued int
	// MaxQueued is the peak occupancy observed.
	MaxQueued int
	// PartitionDrops counts frames discarded because the bridge was
	// partitioned: buffered port-ring frames drained at partition time
	// plus in-flight store-and-forwards whose timer fired while down.
	// Without this drain, a heal would replay pre-partition frames with
	// ancient generations.
	PartitionDrops uint64
}

// add accumulates another bridge's counters (topology aggregation).
func (s *BridgeStats) add(o BridgeStats) {
	s.Forwarded += o.Forwarded
	s.Queued += o.Queued
	if o.MaxQueued > s.MaxQueued {
		s.MaxQueued = o.MaxQueued
	}
	s.PartitionDrops += o.PartitionDrops
}

// NewBridge joins segments a and b with the given store-and-forward
// delay. The bridge occupies one NIC address on each segment.
func NewBridge(k *sim.Kernel, a, b *Bus, delay time.Duration) *Bridge {
	br := &Bridge{k: k, a: a, b: b, delay: delay, aPort: new(NIC), bPort: new(NIC)}
	a.Join(br.aPort, "bridge", func() { br.pump(br.aPort, br.bPort, &br.bBacklog) }, a.p.RxRing)
	b.Join(br.bPort, "bridge", func() { br.pump(br.bPort, br.aPort, &br.aBacklog) }, b.p.RxRing)
	return br
}

// SetBacklog models asymmetric background traffic: frames crossing
// toward segment A (respectively B) are additionally delayed by the
// given amount — the "depth of the queues ... depends on background
// network traffic on each branch".
func (br *Bridge) SetBacklog(towardA, towardB time.Duration) {
	br.aBacklog = towardA
	br.bBacklog = towardB
}

// SetPartitioned takes the bridge down (or back up): both ports go
// down, so neither segment's traffic crosses. Going down also drains
// the frames already buffered in the port rings — a real bridge's
// store buffer does not survive a power cycle, and replaying
// pre-partition frames after a heal would deliver ancient generations.
// Drained and in-flight frames are refcount-released and counted as
// PartitionDrops. Healing (down=false) only re-enables the ports;
// traffic resumes with the next frame transmitted on either segment.
func (br *Bridge) SetPartitioned(down bool) {
	br.partitioned = down
	br.aPort.SetDown(down)
	br.bPort.SetDown(down)
	if down {
		br.drainPort(br.aPort)
		br.drainPort(br.bPort)
	}
}

// drainPort discards everything buffered in one port's receive ring.
func (br *Bridge) drainPort(p *NIC) {
	for {
		f, ok := p.Recv()
		if !ok {
			return
		}
		br.stats.PartitionDrops++
		p.Release(f)
	}
}

// Forwarded returns the number of frames the bridge has relayed.
func (br *Bridge) Forwarded() uint64 { return br.stats.Forwarded }

// Stats returns a snapshot of the bridge counters.
func (br *Bridge) Stats() BridgeStats { return br.stats }

// pump drains one port's ring onto the other segment.
func (br *Bridge) pump(from, to *NIC, backlog *time.Duration) {
	for {
		f, ok := from.Recv()
		if !ok {
			return
		}
		br.stats.Forwarded++
		br.stats.Queued++
		if br.stats.Queued > br.stats.MaxQueued {
			br.stats.MaxQueued = br.stats.Queued
		}
		fw := br.acquireFwd()
		fw.from, fw.to, fw.f = from, to, f
		br.k.AfterCoalesced(br.delay+*backlog, "bridge forward", fw.fn)
	}
}

// acquireFwd takes a forward record (with its prebuilt closure) from the
// pool.
func (br *Bridge) acquireFwd() *bridgeFwd {
	if fw := br.freeFwd.Get(); fw != nil {
		return fw
	}
	fw := &bridgeFwd{br: br}
	fw.fn = func() { fw.run() }
	return fw
}

// run completes one store-and-forward: re-transmit on the far segment,
// release the source buffer, recycle the record. Send copies the payload
// into the destination segment's pool, so the source buffer can be
// recycled immediately afterwards — and because forwarding re-enters
// Send with the original destination, the far segment applies the same
// split dispatch as a local transmission: indexed O(1) lookup for a
// unicast Dst, fan-out only for Broadcast. A bridge port adds no
// delivery cost of its own beyond the store-and-forward delay.
func (fw *bridgeFwd) run() {
	br := fw.br
	br.stats.Queued--
	if br.partitioned {
		// The partition hit while this forward was in its
		// store-and-forward delay: drop it like the drained ring frames,
		// so nothing transmitted before the partition crosses after it.
		br.stats.PartitionDrops++
	} else {
		fw.to.Send(fw.f.Dst, fw.f.Payload)
	}
	fw.from.Release(fw.f)
	fw.f = medium.Frame{}
	fw.from, fw.to = nil, nil
	br.freeFwd.Put(fw)
}
