package medium

import (
	"testing"
	"unsafe"
)

// countingView counts the times its buffer is handed out with new bytes.
type countingView struct{ invalidated int }

func (v *countingView) Invalidate() { v.invalidated++ }

// TestPoolViewContract pins the decode-once view's life on its buffer: a
// fresh buffer has none; a view survives Release and the freelist; it is
// invalidated once, when the pool hands its buffer out again, and not
// before; a bufferless frame has nowhere to keep one. Buf stays 48 bytes
// with the view on it, since the pool's footprint counts every free one.
func TestPoolViewContract(t *testing.T) {
	var p Pool
	b := p.Acquire(4)
	b.Refs = 2
	f := Frame{Payload: b.Data, Buf: b}
	if f.View() != nil {
		t.Fatalf("fresh buffer has view %v", f.View())
	}
	v := new(countingView)
	f.SetView(v)
	p.Release(b)
	p.Release(b)
	if f.View() != v || v.invalidated != 0 {
		t.Fatalf("after release: view kept %v, invalidated %d; want true, 0", f.View() == v, v.invalidated)
	}
	if p.Acquire(4) != b {
		t.Fatal("the pool did not hand out the released buffer")
	}
	if f.View() != v || v.invalidated != 1 {
		t.Fatalf("after reacquire: view kept %v, invalidated %d; want true, 1", f.View() == v, v.invalidated)
	}
	if p.Acquire(4) == b || v.invalidated != 1 {
		t.Fatalf("acquiring another buffer invalidated this one's view (%d)", v.invalidated)
	}

	var bare Frame
	bare.SetView(v)
	if bare.View() != nil {
		t.Error("a bufferless frame kept a view")
	}
	if got := unsafe.Sizeof(Buf{}); got != 48 {
		t.Errorf("unsafe.Sizeof(Buf{}) = %d, want 48: Pool.MemFootprint counts it per free buffer", got)
	}
}
