package core

import (
	"mether/internal/medium"
	"mether/internal/proto"
)

// The decode-once receive path. Every Mether data packet is broadcast,
// so N-1 servers receive each transmission: only the first parses the
// header, into the view on the shared payload buffer, and the others
// read that packet in place. Each receiver still pays its own simulated
// PacketCost/ByteCost; what is saved is the simulator's own work, a
// thousandfold per frame at the 1024-host tier.
//
// The view stays on its buffer as the buffer recycles. The pool
// invalidates it (medium.View) when it hands the buffer out with new
// bytes, and the next first receiver decodes into it again. The
// packet's Data aliases the buffer, so it is valid exactly as long as
// the buffer's current bytes.
type rxView struct {
	pkt   proto.Packet
	err   error // decode failure, cached like a successful parse
	valid bool  // pkt and err describe the buffer's current bytes
}

// Invalidate implements medium.View: the buffer is carrying new bytes.
func (v *rxView) Invalidate() { v.valid = false }

// decodeFrame parses a received frame's packet through its buffer's
// view and returns it in place: every receiver of one transmission reads
// the same Packet, which lives as long as the frame's buffer. The packet
// is read only, and only while the frame is held.
func decodeFrame(f medium.Frame) (*proto.Packet, error) {
	v, _ := f.View().(*rxView)
	if v == nil {
		v = new(rxView)
		f.SetView(v)
	}
	if !v.valid {
		v.pkt, v.err = proto.Decode(f.Payload)
		v.valid = true
	}
	return &v.pkt, v.err
}
