package fabric

import (
	"fmt"
	"testing"

	"mether/internal/medium"
	"mether/internal/sim"
)

// fanPorts is the fan-out width of the benchmark: the snoop-fab-96 world.
const fanPorts = 96

// fanout attaches fanPorts ports, each draining (and releasing) its ring
// from its interrupt — the Mether server's receive shape — and returns a
// step that broadcasts one 48-byte frame from port 0 and runs the kernel
// until every copy has landed. Each step finds the links idle again, so
// its copies land at one instant.
func fanout() (step func()) {
	k := sim.New(1)
	fb := New(k, DefaultParams())
	ports := make([]medium.Port, fanPorts)
	for i := range ports {
		i := i
		ports[i] = fb.AttachPort(fmt.Sprint("p", i), func() {
			for f, ok := ports[i].Recv(); ok; f, ok = ports[i].Recv() {
				ports[i].Release(f)
			}
		})
	}
	payload := make([]byte, 48)
	return func() {
		ports[0].Send(medium.Broadcast, payload)
		k.Run()
	}
}

// BenchmarkFabricFanout is one broadcast to 95 receivers over idle links,
// landed and drained, with the cost per copy beside it.
func BenchmarkFabricFanout(b *testing.B) {
	step := fanout()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(fanPorts-1)), "ns/copy")
}

// Once the buffer pool, the delivery records and the rings are warm, a
// broadcast allocates nothing.
func TestFanoutAllocatesNothing(t *testing.T) {
	step := fanout()
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("a %d-port broadcast allocated %v times", fanPorts, got)
	}
}
