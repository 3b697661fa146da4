package registry_test

import (
	"fmt"
	"time"

	"mether"
	"mether/registry"
)

// Example publishes a segment's capability by name through the §5
// directory. The consumer asks for the name before it exists and blocks
// in Wait on the directory's data-driven view, with no polling and no
// channel outside Mether, until the producer's publish transits.
func Example() {
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 16, Seed: 1})
	defer w.Shutdown()
	dir, err := registry.Create(w, "cluster", 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	results, err := w.CreateSegment("results", 1, 0)
	if err != nil {
		fmt.Println(err)
		return
	}

	w.Spawn(0, "producer", func(env *mether.Env) {
		m, _ := env.Attach(results.CapRW(), mether.RW)
		_ = m.Store32(m.Addr(0, 0), 2026)
		_ = m.Purge(m.Addr(0, 0).Short())
		env.SleepFor(200 * time.Millisecond) // the consumer waits meanwhile
		h, _ := registry.Open(env, dir)
		_ = h.Publish("results", results.CapRO())
	})
	w.Spawn(1, "consumer", func(env *mether.Env) {
		h, _ := registry.Open(env, dir.ReadOnly())
		cap, err := h.Wait("results")
		if err != nil {
			fmt.Println(err)
			return
		}
		m, _ := env.Attach(cap, mether.RO)
		v, _ := m.Load32(m.Addr(0, 0).Short())
		fmt.Printf("found %s holding %d at %v\n", cap.Segment, v, env.Now())
	})
	w.Run()
	// Output: found results holding 2026 at 407.2444ms
}
