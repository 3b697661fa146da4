package ethernet

import (
	"testing"

	"mether/internal/medium"
	"mether/internal/sim"
)

// benchBroadcast drives one broadcast frame per iteration through a
// segment with nics stations, each receiver draining (and releasing) its
// ring from the interrupt callback — the Mether server's receive shape.
func benchBroadcast(b *testing.B, nics, payload int) {
	b.Helper()
	k := sim.New(1)
	bus := NewBus(k, DefaultParams())
	rx := make([]medium.Port, nics)
	for i := 0; i < nics; i++ {
		i := i
		var n medium.Port
		n = bus.AttachPort("rx", func() {
			for {
				f, ok := n.Recv()
				if !ok {
					return
				}
				n.Release(f)
			}
		})
		rx[i] = n
	}
	tx := bus.AttachPort("tx", nil)
	buf := make([]byte, payload)
	// Pace sends at the wire's drain rate so in-flight frames stay
	// bounded and the pool reaches steady state (a faster pump would
	// measure queue growth, not the data path).
	pace := medium.TxTime(medium.WireBytes(payload, bus.p.FrameOverhead, bus.p.MinFrameBytes), bus.p.BandwidthBps) + bus.p.InterFrameGap + bus.p.PropDelay
	sent := 0
	var pump func()
	pump = func() {
		tx.Send(medium.Broadcast, buf)
		sent++
		if sent < b.N {
			k.After(pace, "pump", pump)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(0, "pump", pump)
	k.Run()
}

// BenchmarkBusBroadcastShort is the hot packet of the good protocols: a
// 48-byte datagram fanning out to a small cluster.
func BenchmarkBusBroadcastShort(b *testing.B) { benchBroadcast(b, 4, 48) }

// BenchmarkBusBroadcastFull is the 8 KiB full-page transfer fan-out.
func BenchmarkBusBroadcastFull(b *testing.B) { benchBroadcast(b, 4, 8208) }

// BenchmarkBusBroadcastWide fans a short frame out to a 64-NIC segment,
// the large-cluster delivery shape.
func BenchmarkBusBroadcastWide(b *testing.B) { benchBroadcast(b, 64, 48) }
