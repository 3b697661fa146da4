package medium

import (
	"testing"
	"unsafe"
)

// TestRingSlotContract pins what a ring slot keeps — the buffer
// reference and the two addresses, 16 bytes — and what Pop rebuilds from
// it: a frame built the way both media build one (Payload == Buf.Data)
// comes back whole, its Payload aliasing the buffer; a frame with no
// buffer comes back with its addresses and a nil Payload.
func TestRingSlotContract(t *testing.T) {
	var p Pool
	r := NewRing(32)
	b := p.Acquire(5)
	copy(b.Data, "frame")
	for _, dst := range []int{Broadcast, 6} {
		if !r.Push(Frame{Src: 3, Dst: dst, Payload: b.Data, Buf: b}) {
			t.Fatal("push refused below the bound")
		}
		f, ok := r.Pop()
		switch {
		case !ok:
			t.Fatal("pop found the ring empty")
		case f.Src != 3 || f.Dst != dst || f.Buf != b:
			t.Errorf("dst %d: popped src %d dst %d buf %p, want 3 %d %p", dst, f.Src, f.Dst, f.Buf, dst, b)
		case len(f.Payload) != len(b.Data) || cap(f.Payload) != cap(b.Data) || &f.Payload[0] != &b.Data[0]:
			t.Errorf("dst %d: payload does not alias the buffer's data", dst)
		}
	}

	if !r.Push(Frame{Src: 2, Dst: 7, Payload: []byte{1}}) {
		t.Fatal("push of a bufferless frame refused")
	}
	if f, ok := r.Pop(); !ok || f.Src != 2 || f.Dst != 7 || f.Payload != nil || f.Buf != nil {
		t.Errorf("bufferless frame popped as %+v (ok %v), want src 2 dst 7, no payload, no buffer", f, ok)
	}

	if got := unsafe.Sizeof(slot{}); got != 16 {
		t.Errorf("a ring slot is %d bytes, want 16", got)
	}
	for i := 0; i < 20; i++ {
		r.Push(Frame{Src: i, Dst: Broadcast, Payload: b.Data, Buf: b})
	}
	if got, want := r.MemFootprint(), uint64(cap(r.slots))*16; got != want || got == 0 {
		t.Errorf("MemFootprint = %d, want cap %d × 16 = %d", got, cap(r.slots), want)
	}
}
