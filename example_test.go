package mether_test

import (
	"fmt"

	"mether"
)

// Example shows the paper's whole programming model in one session: a
// writer updates the consistent copy and propagates it with PURGE, a
// reader on another workstation blocks on the data-driven view, and the
// network's bill is three frames. Example_fabric runs the same session
// over the point-to-point fabric, and ExampleWorld_AttachTap shows its
// packets.
func Example() {
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 4, Seed: 1})
	defer w.Shutdown()
	session(w)
	ns := w.NetStats()
	fmt.Printf("network: %d frames, %d wire bytes\n", ns.Frames, ns.WireBytes)
	// Output:
	// reader saw 42 at 30.2132ms
	// network: 3 frames, 252 wire bytes
}

// session is the examples' one session: the writer on host 0 stores 42
// and propagates it, the reader on host 1 deals itself in and blocks on
// the data-driven view until the value arrives.
func session(w *mether.World) {
	seg, err := w.CreateSegment("demo", 1, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	cap := seg.CapRW()

	w.Spawn(0, "writer", func(env *mether.Env) {
		m, _ := env.Attach(cap, mether.RW)
		a := m.Addr(0, 0).Short()
		_ = m.Store32(a, 42)
		_ = m.Purge(a) // broadcast + DO-PURGE
	})
	w.Spawn(1, "reader", func(env *mether.Env) {
		m, _ := env.Attach(cap.ReadOnly(), mether.RO)
		a := m.Addr(0, 0).Short()
		_ = m.Purge(a) // Deal Me In
		v, _ := m.Load32(a.DataDriven())
		fmt.Println("reader saw", v, "at", env.Now())
	})
	w.Run()
}

// Example_fabric moves the session off the shared Ethernet and onto the
// point-to-point fabric: one line of configuration, the same programming
// model. A broadcast has no shared wire to ride there, so the sender pays
// for a unicast copy per destination (NetStats.FanoutFrames).
func Example_fabric() {
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 4, Seed: 1,
		Medium: mether.MediumConfig{Kind: mether.MediumFabric}})
	defer w.Shutdown()
	session(w)
	ns := w.NetStats()
	fmt.Printf("%d frames, %d of them fan-out copies, %d wire bytes\n", ns.Frames, ns.FanoutFrames, ns.WireBytes)
	// Output:
	// reader saw 42 at 30.090592ms
	// 3 frames, 3 of them fan-out copies, 212 wire bytes
}

// ExampleWorld_AttachTap plugs a passive protocol analyzer into the
// session's Ethernet and prints what crossed the wire, decoded: the
// writer's PURGE broadcast, the reader's demand request and the writer's
// answer.
func ExampleWorld_AttachTap() {
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 4, Seed: 1})
	defer w.Shutdown()
	tap := w.AttachTap(0)
	session(w)
	fmt.Print(tap)
	// Output:
	// reader saw 42 at 30.2132ms
	//    12.0212ms  host0  DATA     page 0 short gen 1 (32 bytes)
	//    12.3012ms  host1  REQ      page 0 short
	//    21.7172ms  host0  DATA     page 0 short gen 1 (32 bytes)
}

// ExampleAddr demonstrates the Figure-2 address encoding: the four views
// of a page are plain address-bit aliases.
func ExampleAddr() {
	w := mether.NewWorld(mether.Config{Hosts: 1, Pages: 2, Seed: 1})
	defer w.Shutdown()
	seg, _ := w.CreateSegment("views", 1, 0)
	cap := seg.CapRW()
	w.Spawn(0, "p", func(env *mether.Env) {
		m, _ := env.Attach(cap, mether.RW)
		a := m.Addr(0, 16)
		fmt.Println(a)
		fmt.Println(a.Short())
		fmt.Println(a.Short().DataDriven())
	})
	w.Run()
	// Output:
	// page 0+0x10 [full,demand]
	// page 0+0x10 [short,demand]
	// page 0+0x10 [short,data]
}

// ExampleWorld_CheckInvariants shows the cluster-wide safety check every
// test can apply: one consistent copy per page, always.
func ExampleWorld_CheckInvariants() {
	w := mether.NewWorld(mether.Config{Hosts: 3, Pages: 4, Seed: 1})
	defer w.Shutdown()
	seg, _ := w.CreateSegment("inv", 1, 0)
	cap := seg.CapRW()
	for i := 0; i < 3; i++ {
		i := i
		w.Spawn(i, "writer", func(env *mether.Env) {
			m, _ := env.Attach(cap, mether.RW)
			_ = m.Store32(m.Addr(0, 0).Short(), uint32(i))
		})
	}
	w.Run()
	fmt.Println(w.CheckInvariants())
	// Output: <nil>
}
