package pipe_test

import (
	"bytes"
	"fmt"

	"mether"
	"mether/pipe"
)

// Example demonstrates the §5 pipe library: message passing whose whole
// transport is two Mether pages driven by the paper's final protocol.
func Example() {
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 8, Seed: 1})
	defer w.Shutdown()

	cap, err := pipe.Create(w, "demo", 0, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	w.Spawn(0, "tx", func(env *mether.Env) {
		p, _ := pipe.Open(env, cap, 0)
		_ = p.Send(1, []byte("hello over DSM"))
	})
	w.Spawn(1, "rx", func(env *mether.Env) {
		p, _ := pipe.Open(env, cap, 1)
		m, _ := p.Recv()
		fmt.Printf("tag %d: %s\n", m.Tag, m.Data)
	})
	w.Run()
	// Output: tag 1: hello over DSM
}

// ExampleCSend shows the Intel-iPSC-style primitives the paper ported
// its sparse solver with.
func ExampleCSend() {
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 8, Seed: 1})
	defer w.Shutdown()
	cap, _ := pipe.Create(w, "csend", 0, 1)
	const msgWork = 7
	w.Spawn(0, "tx", func(env *mether.Env) {
		p, _ := pipe.Open(env, cap, 0)
		_ = pipe.CSend(p, msgWork, []byte{1, 2, 3})
	})
	w.Spawn(1, "rx", func(env *mether.Env) {
		p, _ := pipe.Open(env, cap, 1)
		data, typ, _ := pipe.CRecv(p, msgWork)
		fmt.Println(typ, data)
	})
	w.Run()
	// Output: 7 [1 2 3]
}

// Example_requestResponse carries requests and answers both ways over one
// pipe: a short request rides the 32-byte short page, a 2 000-byte one
// the full page, and the bill shows what each path moves.
func Example_requestResponse() {
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 8, Seed: 1})
	defer w.Shutdown()
	cap, err := pipe.Create(w, "rpc", 0, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	requests := [][]byte{[]byte("ping"), bytes.Repeat([]byte("x"), 2000)}
	w.Spawn(0, "client", func(env *mether.Env) {
		p, _ := pipe.Open(env, cap, 0)
		for i, req := range requests {
			_ = p.Send(uint32(i), req)
			resp, _ := p.Recv()
			fmt.Printf("%s\n", resp.Data)
		}
	})
	w.Spawn(1, "server", func(env *mether.Env) {
		p, _ := pipe.Open(env, cap, 1)
		for range requests {
			m, _ := p.Recv()
			_ = p.Send(m.Tag, []byte(fmt.Sprintf("ack %d bytes", len(m.Data))))
		}
	})
	w.Run()
	ns := w.NetStats()
	fmt.Printf("%d frames, %d bytes\n", ns.Frames, ns.WireBytes)
	// Output:
	// ack 4 bytes
	// ack 2000 bytes
	// 26 frames, 18494 bytes
}
