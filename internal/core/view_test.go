package core

import (
	"errors"
	"fmt"
	"testing"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
)

// viewFixture wires a bus, a shared view pool and two receiving drivers
// the way a world builder does, plus a bare transmit NIC.
type viewFixture struct {
	k    *sim.Kernel
	bus  *ethernet.Bus
	pool *ViewPool
	tx   *ethernet.NIC
	rx   [2]*ethernet.NIC
	d    [2]*Driver
}

func newViewFixture(t *testing.T) *viewFixture {
	t.Helper()
	f := &viewFixture{k: sim.New(1), pool: NewViewPool()}
	f.bus = ethernet.NewBus(f.k, ethernet.DefaultParams())
	f.bus.OnViewDrop(f.pool.Recycle)
	f.tx = f.bus.Attach("tx", nil)
	cfg := fastConfig(4)
	cfg.Views = f.pool
	for i := 0; i < 2; i++ {
		h := host.New(f.k, i, fmt.Sprintf("h%d", i), fastHostParams())
		f.rx[i] = f.bus.Attach(h.Name(), nil) // drained by hand in the test
		f.d[i] = New(h, f.rx[i], cfg)
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

	pkt0, err := f.d[0].decodeFrame(frames[0])
	if err != nil {
		t.Fatalf("first decode: %v", err)
	}
	if frames[0].View() == nil || frames[1].View() == nil {
		t.Fatal("decode did not attach a view to the shared buffer")
	}
	// Corrupt the wire bytes: only a cached parse survives this.
	frames[1].Payload[0] = 0xFF
	pkt1, err := f.d[1].decodeFrame(frames[1])
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
	_, err0 := f.d[0].decodeFrame(frames[0])
	_, err1 := f.d[1].decodeFrame(frames[1])
	if !errors.Is(err0, proto.ErrMalformed) {
		t.Fatalf("err0 = %v, want ErrMalformed", err0)
	}
	if err0 != err1 {
		t.Fatalf("second receiver re-parsed: %v vs cached %v", err1, err0)
	}
}

// TestDecodeOnceViewsRecycle: releasing every receiver returns the view
// to the pool, and the buffer's next transmission decodes fresh from a
// recycled view instead of allocating.
func TestDecodeOnceViewsRecycle(t *testing.T) {
	f := newViewFixture(t)
	wire, err := proto.Encode(proto.Packet{Type: proto.TypeRequest, Page: 1, From: 0, OwnerTo: proto.NoOwner})
	if err != nil {
		t.Fatal(err)
	}
	frames := f.broadcastAndRecv(t, wire)
	if _, err := f.d[0].decodeFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	first := frames[0].View()
	f.rx[0].Release(frames[0])
	if n := len(f.pool.free); n != 0 {
		t.Fatalf("view recycled while receiver 1 still held the buffer (pool %d)", n)
	}
	f.rx[1].Release(frames[1])
	if n := len(f.pool.free); n != 1 {
		t.Fatalf("pool holds %d views after full release, want 1", n)
	}

	frames = f.broadcastAndRecv(t, wire)
	if frames[0].View() != nil {
		t.Fatal("stale view survived buffer recycling")
	}
	if _, err := f.d[1].decodeFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	if frames[0].View() != first {
		t.Error("decode did not reuse the recycled view")
	}
	if n := len(f.pool.free); n != 0 {
		t.Errorf("pool holds %d views mid-flight, want 0", n)
	}
}

// TestDecodeWithoutViewsServesFromServerPacket: with no ViewPool nothing
// is attached to the buffer and each driver parses into its server's own
// packet. (newTestCluster's worlds have no pool, so every driver test
// that serves a fault serves it from there.)
func TestDecodeWithoutViewsServesFromServerPacket(t *testing.T) {
	f := newViewFixture(t)
	for _, d := range f.d {
		d.cfg.Views = nil
	}
	wire, err := proto.Encode(proto.Packet{Type: proto.TypeRequest, Page: 2, From: 1, OwnerTo: proto.NoOwner, ReqID: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range f.broadcastAndRecv(t, wire) {
		d := f.d[i]
		pkt, err := d.decodeFrame(fr)
		if err != nil || pkt != &d.server.local || pkt.Page != 2 || pkt.ReqID != 4 {
			t.Errorf("driver %d: decoded %+v (err %v) at %p, want page 2 req 4 in its server's packet %p", i, pkt, err, pkt, &d.server.local)
		}
		if fr.View() != nil {
			t.Errorf("driver %d: a view was attached with no pool configured", i)
		}
	}
}
