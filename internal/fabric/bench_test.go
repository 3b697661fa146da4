package fabric

import (
	"fmt"
	"runtime"
	"testing"

	"mether/internal/medium"
	"mether/internal/sim"
)

// fanPorts is the fan-out width of the benchmarks: the snoop-fab-96 world.
const fanPorts = 96

var payload = make([]byte, 48)

// fanout attaches n ports to a fresh fabric, each draining (and
// releasing) its ring from its interrupt — the Mether server's receive
// shape.
func fanout(n int) (k *sim.Kernel, ports []medium.Port) {
	k = sim.New(1)
	fb := New(k, DefaultParams())
	ports = make([]medium.Port, n)
	for i := range ports {
		i := i
		ports[i] = fb.AttachPort(fmt.Sprint("p", i), func() {
			for f, ok := ports[i].Recv(); ok; f, ok = ports[i].Recv() {
				ports[i].Release(f)
			}
		})
	}
	return k, ports
}

// everyoneBroadcasts sends one 48-byte broadcast from every port at one
// instant and runs the kernel until every copy has landed: the first
// purges of a snoop world.
func everyoneBroadcasts(k *sim.Kernel, ports []medium.Port) {
	for _, p := range ports {
		p.Send(medium.Broadcast, payload)
	}
	k.Run()
}

// BenchmarkFabricFanout is one broadcast to 95 receivers over an idle
// transmitter, landed and drained, with the cost per copy beside it.
func BenchmarkFabricFanout(b *testing.B) {
	k, ports := fanout(fanPorts)
	step := func() {
		ports[0].Send(medium.Broadcast, payload)
		k.Run()
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(fanPorts-1)), "ns/copy")
}

// BenchmarkFabricFanoutCold is every port's first broadcast on a fresh
// 96-port fabric: what the fabric builds as a world starts talking
// (records, buffers, ring slots), with the cost per copy beside it.
func BenchmarkFabricFanoutCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, ports := fanout(fanPorts)
		b.StartTimer()
		everyoneBroadcasts(k, ports)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fanPorts*(fanPorts-1)), "ns/copy")
}

// Once the buffer pool, the delivery records and the rings are warm, a
// broadcast allocates nothing.
func TestFanoutAllocatesNothing(t *testing.T) {
	k, ports := fanout(fanPorts)
	step := func() {
		ports[0].Send(medium.Broadcast, payload)
		k.Run()
	}
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("a %d-port broadcast allocated %v times", fanPorts, got)
	}
}

// Every port's first broadcast on a fresh fabric allocates a bounded
// number of objects per port — its record, buffer and ring slots — not
// per pair of ports: the count per port is the same at 96 and at 192
// ports.
func TestColdFanoutAllocatesPerPort(t *testing.T) {
	const perPort = 8
	for _, n := range []int{96, 192} {
		k, ports := fanout(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		everyoneBroadcasts(k, ports)
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > perPort*uint64(n) {
			t.Errorf("the first broadcasts of %d ports allocated %d objects, want at most %d a port", n, got, perPort)
		} else {
			t.Logf("%d ports: %d objects, %.2f a port", n, got, float64(got)/float64(n))
		}
	}
}
