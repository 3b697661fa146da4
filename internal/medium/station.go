package medium

// Station is the receive side of one port, the same on every medium:
// an address, a bounded receive Ring, the interrupt raised per queued
// frame, the fault plane's down flag, and the two loss counters (ring
// overruns and suppressed sends). A frame's bytes are its buffer's, so
// what a delivery queues is a 16-byte ring slot — the buffer reference
// and the two addresses — and Recv rebuilds the Frame from it. Backends embed it by value and add
// only their transmit model — Send, the Release into their own pool,
// and their MemFootprint — so ring-enqueue, drop and down-port have
// exactly one site in the tree.
type Station struct {
	id    int
	name  string
	rx    Ring
	intr  func()
	drops uint64
	// txSuppressed counts Send calls swallowed because the station was
	// down. Before the counter existed these vanished without a trace,
	// which made down-port scenarios undebuggable: the sender's protocol
	// counters said a request went out, the wire counters said nothing
	// did, and no counter explained the difference.
	txSuppressed uint64
	down         bool
}

// NewStation returns a station with the given address and logical
// receive-ring bound. intr (may be nil) is invoked in kernel event
// context whenever a frame is queued into the ring.
func NewStation(id int, name string, intr func(), ringCap int) Station {
	return Station{id: id, name: name, intr: intr, rx: NewRing(ringCap)}
}

// ID returns the station's dense address on its medium (attach order).
func (s *Station) ID() int { return s.id }

// Rx returns the station itself: what a Port's holder calls to reach its
// receive side without an interface call per frame.
func (s *Station) Rx() *Station { return s }

// Name returns the diagnostic name given at attach.
func (s *Station) Name() string { return s.name }

// SetDown takes the station off the wire (or back on): while down it
// neither receives nor transmits, modelling the paper's "hosts may
// become unreachable for a period of time and yet still have a copy of
// the page". State held in the host is untouched.
func (s *Station) SetDown(down bool) { s.down = down }

// Down reports whether the station is off the wire.
func (s *Station) Down() bool { return s.down }

// Drops returns frames dropped because the receive ring was full.
func (s *Station) Drops() uint64 { return s.drops }

// TxSuppressed returns Send calls swallowed while the station was down.
func (s *Station) TxSuppressed() uint64 { return s.txSuppressed }

// Pending returns the number of frames waiting in the receive ring.
func (s *Station) Pending() int { return s.rx.Pending() }

// RingHighWater returns the peak receive-ring occupancy ever reached.
func (s *Station) RingHighWater() int { return s.rx.HighWater() }

// RingCap returns the logical receive-ring capacity (the drop bound).
func (s *Station) RingCap() int { return s.rx.Bound() }

// RingFootprint returns the physically allocated ring bytes, for the
// embedding port's MemFootprint (which adds its own sizeof).
func (s *Station) RingFootprint() uint64 { return s.rx.MemFootprint() }

// Recv dequeues the oldest received frame, reporting false if the ring
// is empty. The frame's payload remains valid until the port's Release.
func (s *Station) Recv() (Frame, bool) { return s.rx.Pop() }

// Suppress is the transmit side's down check: it reports whether the
// station is down, counting the swallowed send when it is.
func (s *Station) Suppress() bool {
	if s.down {
		s.txSuppressed++
	}
	return s.down
}

// Deliver queues a frame into the receive ring, takes the ring slot's
// reference on the shared buffer and raises the interrupt. A down
// station receives nothing and is charged nothing; a full ring drops
// the frame and counts it. The drop decision is made against the
// logical capacity, so lazy physical growth is invisible to the
// protocol: the same frames are dropped as with an eagerly allocated
// ring of RingCap slots.
func (s *Station) Deliver(f Frame) {
	if s.down {
		return
	}
	if !s.rx.Push(f) {
		s.drops++
		return
	}
	f.Buf.Refs++
	if s.intr != nil {
		s.intr()
	}
}
