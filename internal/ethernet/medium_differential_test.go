package ethernet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mether/internal/medium"
	"mether/internal/sim"
)

// TestMediumInterfaceDifferential drives the Bus strictly through the
// medium.Medium / medium.Port interfaces — the only view the rest of
// the system has after the pluggable-media refactor — and requires the
// observation stream and counters to match refSegment, the from-scratch
// reimplementation of the pre-refactor semantics.
// TestDeliveryDifferential proves the concrete Bus against the
// reference; this test proves the interface seam neither adds nor loses
// behaviour: same rings, same interrupt order, same counters, same RNG
// consumption.
func TestMediumInterfaceDifferential(t *testing.T) {
	const (
		nics      = 5
		ops       = 150
		intrDelay = 300 * time.Microsecond
	)
	params := DefaultParams()
	params.RxRing = 4
	params.LossRate = 0.25

	script := func(seed int64) []diffOp {
		rng := rand.New(rand.NewSource(seed * 31))
		var sc []diffOp
		at := time.Duration(0)
		for i := 0; i < ops; i++ {
			at += time.Duration(rng.Intn(1500)) * time.Microsecond
			op := diffOp{at: at, nic: rng.Intn(nics), tag: byte(i)}
			switch r := rng.Intn(10); {
			case r < 6:
				op.kind = 0
				switch rng.Intn(4) {
				case 0:
					op.dst = medium.Broadcast
				case 1:
					op.dst = op.nic
				default:
					op.dst = rng.Intn(nics)
				}
				op.size = 1 + rng.Intn(300)
			case r < 7:
				op.kind = 1
			case r < 9:
				op.kind = 2
			default:
				op.kind = 3
			}
			sc = append(sc, op)
		}
		return sc
	}

	runMedium := func(seed int64, sc []diffOp) ([]obs, []uint64) {
		k := sim.New(seed)
		var m medium.Medium = NewBus(k, params)
		var stream []obs
		rx := make([]medium.Port, nics)
		for i := 0; i < nics; i++ {
			i := i
			fire := func() { stream = append(stream, obs{k.Now(), fmt.Sprintf("intr %d", i)}) }
			rx[i] = m.AttachPort("n", func() { k.AfterCoalesced(intrDelay, "intr", fire) })
		}
		drain := func(i int) {
			for {
				f, ok := rx[i].Recv()
				if !ok {
					return
				}
				stream = append(stream, obs{k.Now(), fmt.Sprintf("rx %d: %d->%d tag %d len %d", i, f.Src, f.Dst, f.Payload[0], len(f.Payload))})
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
			drain(i)
		}
		st := m.Stats()
		return stream, []uint64{st.Frames, st.WireLost, st.RingDrops, st.TxSuppressed}
	}

	runRef := func(seed int64, sc []diffOp) ([]obs, []uint64) {
		k := sim.New(seed)
		s := newRefSegment(k, params)
		var stream []obs
		rx := make([]*refNIC, nics)
		for i := 0; i < nics; i++ {
			i := i
			fire := func() { stream = append(stream, obs{k.Now(), fmt.Sprintf("intr %d", i)}) }
			rx[i] = s.attach(func() { k.After(intrDelay, "intr", fire) })
		}
		drain := func(i int) {
			for {
				f, ok := rx[i].recv()
				if !ok {
					return
				}
				stream = append(stream, obs{k.Now(), fmt.Sprintf("rx %d: %d->%d tag %d len %d", i, f.src, f.dst, f.payload[0], len(f.payload))})
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
		return stream, []uint64{s.frames, s.wireLost, drops, sup}
	}

	for seed := int64(1); seed <= 20; seed++ {
		sc := script(seed)
		gotLog, gotStats := runMedium(seed, sc)
		wantLog, wantStats := runRef(seed, sc)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("seed %d: counters diverge: interface %v, reference %v", seed, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			max := len(gotLog)
			if len(wantLog) < max {
				max = len(wantLog)
			}
			for i := 0; i < max; i++ {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d: observation %d diverges:\n interface %v %s\n       ref %v %s",
						seed, i, gotLog[i].at, gotLog[i].what, wantLog[i].at, wantLog[i].what)
				}
			}
			t.Fatalf("seed %d: stream lengths diverge: interface %d, reference %d", seed, len(gotLog), len(wantLog))
		}
	}
}
