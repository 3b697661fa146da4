package core

import (
	"mether/internal/medium"
	"mether/internal/proto"
)

// The decode-once receive path. Every Mether data packet is broadcast,
// so one transmission is delivered to every station on the trunk — and
// before this existed, every receiving server independently re-parsed
// the same 16-byte header out of the same shared payload buffer. That
// per-receiver parse is exactly the kind of per-packet host load the
// paper's protocols are designed to squeeze out, and at the 1024-host
// tier it is multiplied a thousandfold per frame.
//
// rxView is the pooled decoded form of one delivered frame. The first
// receiver to handle the frame decodes it and attaches the view to the
// frame's shared payload buffer (medium.Frame.SetView); every later
// receiver of the same transmission reuses the cached view. The view's
// packet Data aliases the payload buffer, so the view must share the
// buffer's lifetime exactly: the bus hands it back to the pool
// (ViewPool.Recycle, wired via Bus.OnViewDrop) at the instant the
// buffer's refcount reaches zero, refcounted by proxy.
//
// Caching the parse changes no virtual-time accounting: each receiver
// still pays its own PacketCost/ByteCost for handling the packet —
// what is saved is the real (simulation-engine) work of re-parsing and
// re-validating the header once per station.
type rxView struct {
	pkt proto.Packet
	err error // decode failure, cached like a successful parse
}

// ViewPool recycles rxViews. One pool serves a whole world (every
// driver on every trunk): worlds are single-threaded simulations, so
// the pool needs no locking, and views allocated by one driver are
// recycled when the last receiver on the buffer's bus releases it.
type ViewPool struct {
	free []*rxView
}

// NewViewPool returns an empty pool.
func NewViewPool() *ViewPool { return &ViewPool{} }

// acquire takes a view from the pool.
func (vp *ViewPool) acquire() *rxView {
	if n := len(vp.free); n > 0 {
		v := vp.free[n-1]
		vp.free[n-1] = nil
		vp.free = vp.free[:n-1]
		return v
	}
	return &rxView{}
}

// Recycle returns a view to the pool; it is the medium OnViewDrop
// hook, invoked as the view's payload buffer is recycled. Foreign values
// are ignored so a bus shared with non-Mether receivers stays safe.
func (vp *ViewPool) Recycle(v any) {
	rv, ok := v.(*rxView)
	if !ok {
		return
	}
	rv.pkt = proto.Packet{}
	rv.err = nil
	vp.free = append(vp.free, rv)
}

// decodeFrame parses a received frame's packet, reusing (or priming) the
// buffer-attached decode-once view, and returns it in place: every
// receiver of one transmission reads the same Packet, which lives as
// long as the frame's buffer. A foreign view type (a non-Mether receiver
// on a shared bus got there first — the same case Recycle tolerates) is
// left alone and the packet decoded directly into the server's own
// packet, as is every frame when no pool is configured: byte-for-byte
// the pre-cache behaviour. Either way the packet is read only, and only
// while the frame is held.
func (d *Driver) decodeFrame(f medium.Frame) (*proto.Packet, error) {
	v := f.View()
	if rv, ok := v.(*rxView); ok {
		return &rv.pkt, rv.err
	}
	if vp := d.cfg.Views; vp != nil && v == nil {
		rv := vp.acquire()
		rv.pkt, rv.err = proto.Decode(f.Payload)
		f.SetView(rv)
		return &rv.pkt, rv.err
	}
	s := d.server
	var err error
	s.local, err = proto.Decode(f.Payload)
	return &s.local, err
}
