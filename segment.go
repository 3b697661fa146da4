package mether

import (
	"errors"
	"fmt"

	"mether/internal/vm"
)

// Segment errors.
var (
	// ErrSegmentExists reports a name collision at creation.
	ErrSegmentExists = errors.New("mether: segment already exists")
	// ErrNoSuchSegment reports an unknown segment name.
	ErrNoSuchSegment = errors.New("mether: no such segment")
	// ErrBadCapability reports an attach with an invalid or insufficient
	// capability.
	ErrBadCapability = errors.New("mether: bad capability")
	// ErrOutOfPages reports page-space exhaustion.
	ErrOutOfPages = errors.New("mether: out of pages")
)

// Segment is a named, capability-protected range of Mether pages — the
// unit the §5 library hands to applications. Segments are created once
// (their pages' consistent copies start on the creating host) and then
// attached by any process holding a capability.
type Segment struct {
	w     *World
	name  string
	base  vm.PageID
	pages int
	tokRW uint64
	tokRO uint64
}

// CreateSegment allocates a segment of n pages whose initial owner is the
// given host. It returns the segment; mint capabilities with CapRO/CapRW.
func (w *World) CreateSegment(name string, n int, ownerHost int) (*Segment, error) {
	owners := make([]int, n)
	for i := range owners {
		owners[i] = ownerHost
	}
	return w.CreateSegmentOwners(name, owners)
}

// CreateSegmentOnTrunk allocates a segment whose pages' consistent
// copies start on the first host of the given trunk. On a multi-trunk
// world the owner's trunk is the segment's home: the owner answers every
// demand request, so its trunk sees requests once while the others pay
// the bridge's store-and-forward delay both ways — server placement is a
// topology decision, exactly like placing the busiest file server on the
// backbone.
func (w *World) CreateSegmentOnTrunk(name string, n, trunk int) (*Segment, error) {
	if trunk < 0 || trunk >= w.Trunks() {
		return nil, fmt.Errorf("mether: trunk %d out of range (world has %d)", trunk, w.Trunks())
	}
	return w.CreateSegment(name, n, w.FirstHostOnTrunk(trunk))
}

// CreateSegmentOwners allocates a segment with one page per entry of
// owners, each page's consistent copy starting on the named host. This
// is how the pipe library lays out its two one-way link pages, one owned
// by each endpoint (Figure 3).
func (w *World) CreateSegmentOwners(name string, owners []int) (*Segment, error) {
	n := len(owners)
	if n == 0 {
		return nil, fmt.Errorf("mether: segment %q needs at least one page", name)
	}
	if _, ok := w.segs[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrSegmentExists, name)
	}
	if int(w.nextPage)+n > w.cfg.Pages {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrOutOfPages, n, w.cfg.Pages-int(w.nextPage))
	}
	for _, o := range owners {
		if o < 0 || o >= len(w.hosts) {
			return nil, fmt.Errorf("mether: owner host %d out of range", o)
		}
	}
	s := &Segment{
		w:     w,
		name:  name,
		base:  w.nextPage,
		pages: n,
		tokRW: w.mintToken(),
		tokRO: w.mintToken(),
	}
	w.nextPage += vm.PageID(n)
	for i, o := range owners {
		w.drivers[o].CreatePage(s.base + vm.PageID(i))
	}
	w.segs[name] = s
	return s, nil
}

// LookupSegment finds a segment by name.
func (w *World) LookupSegment(name string) (*Segment, error) {
	s, ok := w.segs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchSegment, name)
	}
	return s, nil
}

// mintToken returns a fresh unforgeable-within-the-simulation token.
func (w *World) mintToken() uint64 {
	w.nextTok++
	return w.nextTok<<32 | uint64(w.k.Rand().Uint32())
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.name }

// WarmReplicas seeds a zero-filled resident replica of every segment
// page on every host, modelling a cluster that has been running long
// enough for broadcasts to have populated all resident copies. Call it
// before spawning processes: attaches then map in without demand
// fetches, which keeps large-cluster world setup linear instead of
// cubic in host count (each cold fetch is a broadcast request that
// every host must ingest).
// Seeding records one page range per driver (core.SeedReplicaRange)
// and applies it lazily as pages materialize, so warming a segment is
// O(hosts), not O(hosts × pages) — at the 10k-host tier the difference
// is a hundred million page records that never get built.
func (s *Segment) WarmReplicas() {
	for _, d := range s.w.drivers {
		d.SeedReplicaRange(s.base, s.base+vm.PageID(s.pages))
	}
}

// WarmReplicas warms every segment created so far (Segment.WarmReplicas
// over the whole allocated page range) — the cluster recipes' WarmStart,
// which holds for whatever segments a workload laid out.
func (w *World) WarmReplicas() {
	for _, d := range w.drivers {
		d.SeedReplicaRange(0, w.nextPage)
	}
}

// Pages returns the segment length in pages.
func (s *Segment) Pages() int { return s.pages }

// Capability grants access to a segment at up to Mode rights. A
// capability with RW mode can be weakened with ReadOnly; there is no way
// to strengthen one.
type Capability struct {
	Segment string
	Mode    Mode
	token   uint64
}

// CapRW mints a capability allowing both consistent (writable) and
// inconsistent attaches.
func (s *Segment) CapRW() Capability {
	return Capability{Segment: s.name, Mode: RW, token: s.tokRW}
}

// CapRO mints a capability allowing only inconsistent (read-only)
// attaches.
func (s *Segment) CapRO() Capability {
	return Capability{Segment: s.name, Mode: RO, token: s.tokRO}
}

// ReadOnly weakens a capability to read-only rights.
func (c Capability) ReadOnly() Capability {
	seg := c.Segment
	return Capability{Segment: seg, Mode: RO, token: c.token}
}

// MarshalBinary serializes a capability so it can be stored inside
// Mether memory (e.g. the registry package's directory pages).
// Capabilities are bearer tokens: anything that can read the bytes can
// use the rights, which is exactly how a capability directory grants
// access.
func (c Capability) MarshalBinary() ([]byte, error) {
	if len(c.Segment) > 255 {
		return nil, fmt.Errorf("mether: segment name %q too long", c.Segment)
	}
	buf := make([]byte, 1+len(c.Segment)+1+8)
	buf[0] = byte(len(c.Segment))
	copy(buf[1:], c.Segment)
	buf[1+len(c.Segment)] = byte(c.Mode)
	for i := 0; i < 8; i++ {
		buf[2+len(c.Segment)+i] = byte(c.token >> (8 * i))
	}
	return buf, nil
}

// UnmarshalBinary restores a capability serialized by MarshalBinary.
func (c *Capability) UnmarshalBinary(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("%w: capability blob too short", ErrBadCapability)
	}
	n := int(b[0])
	if len(b) < 2+n+8 {
		return fmt.Errorf("%w: capability blob truncated", ErrBadCapability)
	}
	c.Segment = string(b[1 : 1+n])
	c.Mode = Mode(b[1+n])
	c.token = 0
	for i := 0; i < 8; i++ {
		c.token |= uint64(b[2+n+i]) << (8 * i)
	}
	return nil
}

// checkAttach validates a capability for an attach at the given mode.
func (s *Segment) checkAttach(c Capability, mode Mode) error {
	switch {
	case c.Segment != s.name:
		return fmt.Errorf("%w: capability for %q used on %q", ErrBadCapability, c.Segment, s.name)
	case mode == RW && (c.Mode != RW || c.token != s.tokRW):
		return fmt.Errorf("%w: writable attach to %q requires an RW capability", ErrBadCapability, s.name)
	case mode == RO && c.token != s.tokRO && c.token != s.tokRW:
		return fmt.Errorf("%w: unknown token for %q", ErrBadCapability, s.name)
	default:
		return nil
	}
}
