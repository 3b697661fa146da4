// Package pipe implements the pipe-like operations of the Mether library
// (paper §5): message send/receive built on two one-way Mether pages,
// using the communication structure of the paper's sparse-solver protocol
// (Figure 3).
//
// Each endpoint owns one page (its consistent, writable, demand-driven
// side) and views the peer's page as inconsistent, read-only, and — while
// waiting — data-driven. Every page carries a WriteGeneration /
// WriteDataSize pair describing the owner's outgoing message and a
// ReadGeneration / ReadDataSize pair acknowledging consumption of the
// peer's messages:
//
//	a write can only proceed when the WriteGeneration in the consistent
//	page and the ReadGeneration in the inconsistent page are equal; a
//	read can proceed only when the WriteGeneration in the inconsistent
//	page is greater than the ReadGeneration in the consistent page.
//
// Messages up to ShortPayload bytes ride entirely in the 32-byte short
// page, so a fault moves 32 bytes instead of 8192 — the short-page fast
// path the paper measures. Larger messages use the full page.
//
// The receive path follows the paper's reader verbatim: check the
// inconsistent short demand-driven copy; if it shows no new data, purge
// it and check again (a fresh fetch); if still nothing, purge and touch
// the data-driven view, sleeping until the writer's PURGE broadcast
// transits the network. Initialization purges the inconsistent copy so a
// current one is fetched — the ubiquitous "Deal Me In" step.
package pipe

import (
	"errors"
	"fmt"
	"time"

	"mether"
	"mether/internal/vm"
)

// Page layout (byte offsets). The header lives in the short region so
// generation checks always ride the 32-byte path.
const (
	offWriteGen  = 0
	offWriteSize = 4
	offReadGen   = 8
	offReadSize  = 12
	offTag       = 16
	offInline    = 20
	offOverflow  = vm.ShortSize

	// ShortPayload is the largest message that fits the short-page fast
	// path alongside the header.
	ShortPayload = vm.ShortSize - offInline
	// MaxPayload is the largest message a pipe can carry.
	MaxPayload = vm.PageSize - offOverflow
)

// ErrTooLarge reports a message exceeding MaxPayload.
var ErrTooLarge = errors.New("pipe: message too large")

// Message is one received message: the payload plus the writer's tag
// (tags emulate the type argument of Intel-style csend/crecv).
type Message struct {
	Tag  uint32
	Data []byte
}

// Create allocates the two-page segment for a pipe between two hosts and
// returns the capability both ends use to open it. Side 0 belongs to
// hostA (it owns page 0), side 1 to hostB.
func Create(w *mether.World, name string, hostA, hostB int) (mether.Capability, error) {
	seg, err := w.CreateSegmentOwners("pipe:"+name, []int{hostA, hostB})
	if err != nil {
		return mether.Capability{}, err
	}
	return seg.CapRW(), nil
}

// Pipe is one endpoint of a bidirectional Mether pipe. It is bound to
// the process that opened it and must not be shared.
type Pipe struct {
	env  *mether.Env
	own  *mether.Mapping // writable view of our page
	peer *mether.Mapping // read-only view of both pages (we read the peer's)

	ownPage  int
	peerPage int
}

// checkCost models the application's generation-compare instruction
// cost, charged as user CPU per check. ~50µs: a handful of loads,
// compares and loop overhead on a Sun-3/50-class machine (the paper's
// single-process increment costs ~50µs with loop overhead).
const checkCost = 50 * time.Microsecond

// Open attaches a pipe endpoint. side is 0 or 1 and must differ between
// the two endpoints; cap must come from Create.
func Open(env *mether.Env, cap mether.Capability, side int) (*Pipe, error) {
	if side != 0 && side != 1 {
		return nil, fmt.Errorf("pipe: side must be 0 or 1, got %d", side)
	}
	own, err := env.Attach(cap, mether.RW)
	if err != nil {
		return nil, fmt.Errorf("pipe: attach writable: %w", err)
	}
	peer, err := env.Attach(cap.ReadOnly(), mether.RO)
	if err != nil {
		return nil, fmt.Errorf("pipe: attach read-only: %w", err)
	}
	p := &Pipe{
		env:      env,
		own:      own,
		peer:     peer,
		ownPage:  side,
		peerPage: 1 - side,
	}
	// Deal Me In: purge the attach-time inconsistent copy of the peer
	// page so the first check fetches a current one.
	if err := p.peer.Purge(p.peerAddr(0).Short()); err != nil {
		return nil, fmt.Errorf("pipe: deal-me-in purge: %w", err)
	}
	return p, nil
}

// ownAddr returns an address within our page.
func (p *Pipe) ownAddr(off int) mether.Addr { return p.own.Addr(p.ownPage, off) }

// peerAddr returns an address within the peer's page.
func (p *Pipe) peerAddr(off int) mether.Addr { return p.peer.Addr(p.peerPage, off) }

// compute charges one generation-check's worth of user CPU.
func (p *Pipe) compute() { p.env.Compute(checkCost) }

// Send transmits one message, blocking until the peer has consumed the
// previous one (the pipe is one message deep, like a synchronous csend).
func (p *Pipe) Send(tag uint32, data []byte) error {
	if len(data) > MaxPayload {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), MaxPayload)
	}
	myWriteGen, err := p.own.Load32(p.ownAddr(offWriteGen).Short())
	if err != nil {
		return err
	}
	// Flow control: wait until the peer's ReadGeneration catches up with
	// our WriteGeneration.
	if err := p.waitPeer(func(peerShort []byte) bool {
		return le32(peerShort[offReadGen:]) == myWriteGen
	}); err != nil {
		return err
	}

	// The writer locks the page, fills in the data, sets the
	// WriteDataSize, increments the WriteGeneration counter, and issues
	// a purge.
	short := len(data) <= ShortPayload
	lockA := p.ownAddr(0)
	if err := p.own.Lock(lockA); err != nil {
		return fmt.Errorf("pipe: lock: %w", err)
	}
	dataOff := offOverflow
	if short {
		dataOff = offInline
	}
	if len(data) > 0 {
		if err := p.own.Write(p.ownAddr(dataOff), data); err != nil {
			p.unlockBestEffort(lockA)
			return err
		}
	}
	if err := p.own.Store32(p.ownAddr(offWriteSize).Short(), uint32(len(data))); err != nil {
		p.unlockBestEffort(lockA)
		return err
	}
	if err := p.own.Store32(p.ownAddr(offTag).Short(), tag); err != nil {
		p.unlockBestEffort(lockA)
		return err
	}
	if err := p.own.Store32(p.ownAddr(offWriteGen).Short(), myWriteGen+1); err != nil {
		p.unlockBestEffort(lockA)
		return err
	}
	if err := p.own.Unlock(lockA); err != nil {
		return err
	}
	purgeA := p.ownAddr(0)
	if short {
		purgeA = purgeA.Short()
	}
	return p.own.Purge(purgeA)
}

func (p *Pipe) unlockBestEffort(a mether.Addr) {
	_ = p.own.Unlock(a)
}

// Recv receives one message, blocking until the peer writes.
func (p *Pipe) Recv() (Message, error) {
	myReadGen, err := p.own.Load32(p.ownAddr(offReadGen).Short())
	if err != nil {
		return Message{}, err
	}
	if err := p.waitPeer(func(peerShort []byte) bool {
		return le32(peerShort[offWriteGen:]) > myReadGen
	}); err != nil {
		return Message{}, err
	}

	size, err := p.peer.Load32(p.peerAddr(offWriteSize).Short())
	if err != nil {
		return Message{}, err
	}
	tag, err := p.peer.Load32(p.peerAddr(offTag).Short())
	if err != nil {
		return Message{}, err
	}
	if size > MaxPayload {
		return Message{}, fmt.Errorf("pipe: corrupt size %d", size)
	}
	data := make([]byte, size)
	if size > 0 {
		// Short messages ride in the short page we already hold; larger
		// ones read through the full view (fetching the remainder if the
		// transit that woke us carried only 32 bytes).
		src := p.peerAddr(offInline).Short()
		if int(size) > ShortPayload {
			src = p.peerAddr(offOverflow)
		}
		if err := p.peer.Read(src, data); err != nil {
			return Message{}, err
		}
	}

	// Acknowledge: copy the sizes, bump our ReadGeneration and propagate
	// so the sender's flow-control wait can proceed.
	if err := p.own.Store32(p.ownAddr(offReadSize).Short(), size); err != nil {
		return Message{}, err
	}
	if err := p.own.Store32(p.ownAddr(offReadGen).Short(), myReadGen+1); err != nil {
		return Message{}, err
	}
	if err := p.own.Purge(p.ownAddr(0).Short()); err != nil {
		return Message{}, err
	}
	return Message{Tag: tag, Data: data}, nil
}

// waitPeer implements the paper's reader protocol on the peer page: one
// cheap check of the resident inconsistent copy, then purge + demand
// refetch, then purge + data-driven block, repeating.
func (p *Pipe) waitPeer(ready func(peerShort []byte) bool) error {
	buf := make([]byte, vm.ShortSize)
	shortA := p.peerAddr(0).Short()
	for {
		// 1. Check the (possibly stale) resident copy.
		p.compute()
		if err := p.peer.Read(shortA, buf); err != nil {
			return err
		}
		if ready(buf) {
			return nil
		}
		// 2. Purge and check again: an explicit fresh fetch.
		if err := p.peer.Purge(shortA); err != nil {
			return err
		}
		p.compute()
		if err := p.peer.Read(shortA, buf); err != nil {
			return err
		}
		if ready(buf) {
			return nil
		}
		// 3. Purge and touch the data-driven view: sleep until a new
		// version of the page transits the network.
		if err := p.peer.Purge(shortA); err != nil {
			return err
		}
		p.compute()
		if err := p.peer.Read(shortA.DataDriven(), buf); err != nil {
			return err
		}
		if ready(buf) {
			return nil
		}
	}
}

// le32 decodes a little-endian uint32 (frame layout is little-endian).
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
