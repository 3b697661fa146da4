package core

import (
	"errors"
	"fmt"
	"testing"

	"mether/internal/ethernet"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
	"mether/internal/vm"
)

// viewFixture is a bus with a bare transmit NIC and two receiving NICs
// drained by hand, each receive decoded the way a driver's server does.
type viewFixture struct {
	k   *sim.Kernel
	bus *ethernet.Bus
	tx  medium.Port
	rx  [2]medium.Port
}

func newViewFixture(t *testing.T) *viewFixture {
	t.Helper()
	f := &viewFixture{k: sim.New(1)}
	f.bus = ethernet.NewBus(f.k, ethernet.DefaultParams())
	f.tx = f.bus.AttachPort("tx", nil)
	for i := range f.rx {
		f.rx[i] = f.bus.AttachPort(fmt.Sprintf("h%d", i), nil)
	}
	t.Cleanup(f.k.Shutdown)
	return f
}

// broadcastAndRecv sends one payload and returns each receiver's frame.
func (f *viewFixture) broadcastAndRecv(t *testing.T, payload []byte) [2]medium.Frame {
	t.Helper()
	f.tx.Send(medium.Broadcast, payload)
	f.k.Run()
	var out [2]medium.Frame
	for i := range out {
		fr, ok := f.rx[i].Recv()
		if !ok {
			t.Fatalf("receiver %d got no frame", i)
		}
		out[i] = fr
	}
	return out
}

// TestDecodeOnceSharesTheParse: the first receiver's parse is attached
// to the shared buffer and later receivers read it in place rather than
// re-reading the wire bytes — proven by corrupting the payload after
// the first decode, which a re-parse could not survive, and by both
// receivers holding the same *proto.Packet.
func TestDecodeOnceSharesTheParse(t *testing.T) {
	f := newViewFixture(t)
	wire, err := proto.Encode(proto.Packet{Type: proto.TypeRequest, Page: 3, Short: true, From: 7, OwnerTo: proto.NoOwner, ReqID: 9})
	if err != nil {
		t.Fatal(err)
	}
	frames := f.broadcastAndRecv(t, wire)

	pkt0, err := decodeFrame(frames[0])
	if err != nil {
		t.Fatalf("first decode: %v", err)
	}
	if frames[0].View() == nil || frames[1].View() == nil {
		t.Fatal("decode did not attach a view to the shared buffer")
	}
	// Corrupt the wire bytes: only a cached parse survives this.
	frames[1].Payload[0] = 0xFF
	pkt1, err := decodeFrame(frames[1])
	if err != nil {
		t.Fatalf("second decode should reuse the cached parse, got %v", err)
	}
	if pkt0 != pkt1 {
		t.Fatalf("receivers hold different packets: %p vs %p", pkt0, pkt1)
	}
	if pkt1.Page != 3 || pkt1.From != 7 || pkt1.ReqID != 9 || !pkt1.Short {
		t.Fatalf("cached packet wrong: %+v", pkt1)
	}
}

// TestDecodeOnceCachesFailures: a malformed broadcast is parsed (and
// rejected) once; later receivers get the identical cached error.
func TestDecodeOnceCachesFailures(t *testing.T) {
	f := newViewFixture(t)
	frames := f.broadcastAndRecv(t, []byte{0xBA, 0xD0, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	_, err0 := decodeFrame(frames[0])
	_, err1 := decodeFrame(frames[1])
	if !errors.Is(err0, proto.ErrMalformed) {
		t.Fatalf("err0 = %v, want ErrMalformed", err0)
	}
	if err0 != err1 {
		t.Fatalf("second receiver re-parsed: %v vs cached %v", err1, err0)
	}
}

// TestDecodeOnceViewsRecycle: the view stays on the buffer when every
// receiver has released it, and the buffer's next transmission is
// decoded afresh into the same view rather than served the old parse.
func TestDecodeOnceViewsRecycle(t *testing.T) {
	f := newViewFixture(t)
	encode := func(page vm.PageID) []byte {
		wire, err := proto.Encode(proto.Packet{Type: proto.TypeRequest, Page: page, From: 0, OwnerTo: proto.NoOwner})
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	frames := f.broadcastAndRecv(t, encode(1))
	if _, err := decodeFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	first := frames[0].View()
	buf := frames[0].Buf
	f.rx[0].Release(frames[0])
	f.rx[1].Release(frames[1])
	if buf.Refs != 0 || frames[1].View() != first {
		t.Fatalf("after full release: refs %d, view kept %v; want 0, true", buf.Refs, frames[1].View() == first)
	}

	frames = f.broadcastAndRecv(t, encode(2))
	if frames[0].Buf != buf || frames[0].View() != first {
		t.Fatal("the next transmission did not reuse the buffer and its view")
	}
	for i, fr := range frames {
		pkt, err := decodeFrame(fr)
		if err != nil || pkt.Page != 2 {
			t.Fatalf("receiver %d decoded %+v (err %v), want page 2: a stale parse survived the buffer's reuse", i, pkt, err)
		}
	}
	if frames[0].View() != first {
		t.Error("decode replaced the buffer's view instead of decoding into it")
	}
}
