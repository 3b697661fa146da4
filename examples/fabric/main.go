// Fabric: the root package's Example session moved off the shared
// Ethernet and onto the RDMA-like point-to-point fabric via
// Config.Medium — one line of configuration, same programming model.
// The interesting part is the bill: on the fabric a broadcast has no
// shared wire to ride, so every PURGE's propagation is expanded into
// sender-paid unicast copies (Stats.FanoutFrames), each serialized on
// its own link.
package main

import (
	"fmt"
	"log"
	"time"

	"mether"
)

func main() {
	fp := mether.DefaultFabricParams()
	fp.LinkLatency = 5 * time.Microsecond

	w := mether.NewWorld(mether.Config{
		Hosts: 2, Pages: 4, Seed: 1,
		Medium: mether.MediumConfig{Kind: mether.MediumFabric, Fabric: fp},
	})
	defer w.Shutdown()

	seg, err := w.CreateSegment("greetings", 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	capRW := seg.CapRW()

	w.Spawn(0, "writer", func(env *mether.Env) {
		m, err := env.Attach(capRW, mether.RW)
		if err != nil {
			log.Fatal(err)
		}
		a := m.Addr(0, 0).Short()
		if err := m.Store32(a, 42); err != nil {
			log.Fatal(err)
		}
		if err := m.Purge(a); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] writer: stored and propagated 42\n", env.Now())
	})

	w.Spawn(1, "reader", func(env *mether.Env) {
		m, err := env.Attach(capRW.ReadOnly(), mether.RO)
		if err != nil {
			log.Fatal(err)
		}
		a := m.Addr(0, 0).Short()
		if err := m.Purge(a); err != nil {
			log.Fatal(err)
		}
		v, err := m.Load32(a.DataDriven())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] reader: saw %d over the fabric\n", env.Now(), v)
	})

	w.Run()
	st := w.NetStats()
	fmt.Printf("fabric bill: %d frames (%d of them broadcast fan-out copies), %d wire bytes\n",
		st.Frames, st.FanoutFrames, st.WireBytes)
}
