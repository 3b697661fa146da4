package mether

import (
	"fmt"
	"time"

	"mether/internal/core"
	"mether/internal/host"
	"mether/internal/vm"
)

// Env is a simulated process's handle onto Mether: it carries the
// process identity (for CPU accounting and blocking) and the host's
// driver. An Env is only valid inside the function passed to World.Spawn
// and must not be shared across processes.
type Env struct {
	w    *World
	p    *host.Proc
	d    *core.Driver
	poll core.Poll // Mapping.Spin32's state
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.p.Now() }

// Proc exposes the underlying scheduler process (advanced use, e.g.
// reading the user/sys accounting).
func (e *Env) Proc() *host.Proc { return e.p }

// Compute consumes d of user-mode CPU time: the only way application
// work passes virtual time.
func (e *Env) Compute(d time.Duration) { e.p.UseUser(d) }

// SleepFor blocks the process for virtual duration d.
func (e *Env) SleepFor(d time.Duration) { e.p.SleepFor(d) }

// Attach maps a segment into this process's address space at the given
// mode, validating the capability. Per the paper, the consistent
// (writable) versus inconsistent (read-only) choice is made here; all
// other view selection happens through address bits.
func (e *Env) Attach(c Capability, mode Mode) (*Mapping, error) {
	seg, err := e.w.LookupSegment(c.Segment)
	if err != nil {
		return nil, err
	}
	if err := seg.checkAttach(c, mode); err != nil {
		return nil, err
	}
	for i := 0; i < seg.pages; i++ {
		if err := e.d.MapIn(e.p, mode, seg.base+vm.PageID(i)); err != nil {
			return nil, fmt.Errorf("mether: attach %q: %w", c.Segment, err)
		}
	}
	return &Mapping{env: e, seg: seg, mode: mode}, nil
}

// AttachPages maps only the named segment-relative pages instead of the
// whole segment: the windowed attach for workloads whose per-host
// working set is O(1) pages of an O(hosts)-page segment. A full Attach
// maps (and on a cold world demand-fetches) every page on every host —
// quadratic state for linear use — where a windowed attach keeps each
// host's mapped set, and therefore its driver directory, at working-set
// size. Accessing an unlisted page through the returned mapping fails
// with ErrNotMapped exactly as an unattached segment would.
func (e *Env) AttachPages(c Capability, mode Mode, pages ...int) (*Mapping, error) {
	seg, err := e.w.LookupSegment(c.Segment)
	if err != nil {
		return nil, err
	}
	if err := seg.checkAttach(c, mode); err != nil {
		return nil, err
	}
	for _, pg := range pages {
		if pg < 0 || pg >= seg.pages {
			return nil, fmt.Errorf("mether: attach %q: page %d outside segment", c.Segment, pg)
		}
		if err := e.d.MapIn(e.p, mode, seg.base+vm.PageID(pg)); err != nil {
			return nil, fmt.Errorf("mether: attach %q: %w", c.Segment, err)
		}
	}
	return &Mapping{env: e, seg: seg, mode: mode}, nil
}

// Mapping is an attached segment. All accessors take segment-relative
// addresses built with Addr.
type Mapping struct {
	env  *Env
	seg  *Segment
	mode Mode
}

// Addr builds a full-space demand-driven address for byte off of the
// segment-relative page; apply Short/DataDriven to select other views.
func (m *Mapping) Addr(page, off int) Addr {
	if page < 0 || page >= m.seg.pages {
		panic(fmt.Sprintf("mether: page %d outside segment %q", page, m.seg.name))
	}
	return core.NewAddr(m.seg.base+vm.PageID(page), off)
}

// Load32 reads a 32-bit word through the mapping.
func (m *Mapping) Load32(a Addr) (uint32, error) {
	v, err := m.env.d.Load(m.env.p, m.mode, a, 4)
	return uint32(v), err
}

// Spin32 is
//
//	for n := 0; ; { env.Compute(every); v, err := m.Load32(a); if err != nil || done(v) { return v, err }; *lost++; if n++; n >= limit { return v, nil } }
//
// in every virtual-time respect and at a fraction of the engine's cost:
// while the page stays resident the scheduler makes the looks, the kernel
// runs every look between two events that change nothing in one step, and
// the process is resumed once, at the look that ends the spin (or one that
// faults). The rule that buys this: done must be pure — asked any number
// of times, in kernel context, possibly on another process's stack, its
// answer depends on v and on nothing the spin's own looks change; it may
// not block (no Compute, sleep, Load, Store, Purge) and should not
// allocate: build it once, outside the loop. *lost counts the losses as
// they happen, so a run cut short in mid-spin has counted them. A limit
// below 1 is 1.
func (m *Mapping) Spin32(a Addr, every time.Duration, done func(uint32) bool, limit int, lost *uint64) (uint32, error) {
	return m.env.d.Spin32(m.env.p, &m.env.poll, m.mode, a, every, done, limit, lost)
}

// Store32 writes a 32-bit word through the mapping.
func (m *Mapping) Store32(a Addr, v uint32) error {
	return m.env.d.Store(m.env.p, m.mode, a, 4, uint64(v))
}

// Read copies len(buf) bytes from the segment into buf.
func (m *Mapping) Read(a Addr, buf []byte) error {
	return m.env.d.ReadBytes(m.env.p, m.mode, a, buf)
}

// Write copies data into the segment.
func (m *Mapping) Write(a Addr, data []byte) error {
	return m.env.d.WriteBytes(m.env.p, m.mode, a, data)
}

// Purge applies the PURGE operator to the addressed view: invalidation
// for read-only copies (active update), broadcast-then-DO-PURGE for the
// consistent copy (passive update; blocks until propagated).
func (m *Mapping) Purge(a Addr) error {
	return m.env.d.Purge(m.env.p, m.mode, a)
}

// Lock pins the addressed page per the Figure-1 rules; remote requests
// are deferred until Unlock.
func (m *Mapping) Lock(a Addr) error {
	return m.env.d.Lock(m.env.p, m.mode, a)
}

// Unlock releases a lock taken with Lock.
func (m *Mapping) Unlock(a Addr) error {
	return m.env.d.Unlock(m.env.p, a)
}
