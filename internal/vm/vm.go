// Package vm provides the memory substrate for the Mether simulation:
// page frames with generation counters, page geometry constants, and
// access validation. A frame holds its 32-byte short page inline and
// allocates the 8 KB full page only when a write needs it, so a host
// pays for the bytes it uses. Page state (presence, ownership,
// protections) lives in the Mether driver (internal/core); this package
// only manages bytes.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	// PageSize is the full Mether page size, matching the Sun-4 8 KB page
	// the paper uses.
	PageSize = 8192
	// ShortSize is the short-page size: the first 32 bytes of a page,
	// transferred on short-view faults.
	ShortSize = 32
)

// PageID identifies a page within the global Mether address space.
type PageID uint32

// ErrBadAccess reports an out-of-range or misaligned memory access.
var ErrBadAccess = errors.New("vm: bad access")

// CheckRange validates an access of size bytes at off within a page of
// the given limit (PageSize or ShortSize for short views).
func CheckRange(off, size, limit int) error {
	if size <= 0 || off < 0 || off+size > limit {
		return fmt.Errorf("%w: off=%d size=%d limit=%d", ErrBadAccess, off, size, limit)
	}
	return nil
}

// zeroPage is the canonical all-zero page every frame without a full
// page shares. Region and RestRegion alias it where the frame holds no
// bytes of its own; callers honour the Region contract (read/encode
// only, never write through the slice), so one page serves every zero
// replica in the world.
var zeroPage [PageSize]byte

// Frame is the backing store for one page on one host. The first
// ShortSize bytes are the short page; the rest is the "superset"
// remainder. Gen is a logical version that increases with every mutation
// and rides along on the wire so receivers can discard stale refreshes.
//
// Storage follows the paper's short page: a host pays for the bytes it
// uses. The short page lives inline in the frame, so installing or
// storing short bytes allocates nothing. The full page is a separate
// 8 KB array, allocated by the first write past ShortSize (or a full
// region asked of a frame whose short bytes are not all zero); it takes
// over the short bytes when it is created, and from then on the inline
// copy is stale and unused. Reads beyond the stored bytes read as zero,
// so a replica seeded but never written costs no page bytes beyond the
// frame itself, which is what lets 10k-host worlds fit in memory.
type Frame struct {
	short [ShortSize]byte
	full  *[PageSize]byte // nil until the page outgrows the short bytes
	gen   uint64
}

// data returns the frame's stored bytes: the full page once it exists,
// the inline short page before.
func (f *Frame) data() []byte {
	if f.full != nil {
		return f.full[:]
	}
	return f.short[:]
}

// grow allocates the full page, carrying the short bytes over.
func (f *Frame) grow() {
	if f.full == nil {
		f.full = new([PageSize]byte)
		copy(f.full[:], f.short[:])
	}
}

// Tier returns the bytes the frame holds outside itself: 0 before the
// full page exists, PageSize after. The inline short page is part of
// the frame's own size. Diagnostic (memory accounting); not part of the
// paging protocol.
func (f *Frame) Tier() int {
	if f.full != nil {
		return PageSize
	}
	return 0
}

// Gen returns the frame's current generation.
func (f *Frame) Gen() uint64 { return f.gen }

// SetGen sets the generation, used when installing received copies.
func (f *Frame) SetGen(g uint64) { f.gen = g }

// Load reads an unsigned little-endian integer of size 1, 2, 4 or 8
// bytes at off. Bytes beyond the stored ones read as zero.
func (f *Frame) Load(off, size int) (uint64, error) {
	if err := CheckRange(off, size, PageSize); err != nil {
		return 0, err
	}
	src := f.data()
	if off+size > len(src) {
		// The access reaches past the stored bytes: assemble from the
		// short page plus implicit zeros.
		var buf [8]byte
		if off < len(src) {
			copy(buf[:], src[off:])
		}
		src = buf[:]
		off = 0
	}
	switch size {
	case 1:
		return uint64(src[off]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(src[off:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(src[off:])), nil
	case 8:
		return binary.LittleEndian.Uint64(src[off:]), nil
	default:
		return 0, fmt.Errorf("%w: unsupported size %d", ErrBadAccess, size)
	}
}

// Store writes an unsigned little-endian integer of size 1, 2, 4 or 8
// bytes at off and bumps the generation.
func (f *Frame) Store(off, size int, v uint64) error {
	if err := CheckRange(off, size, PageSize); err != nil {
		return err
	}
	switch size {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("%w: unsupported size %d", ErrBadAccess, size)
	}
	if off+size > ShortSize {
		f.grow()
	}
	dst := f.data()
	switch size {
	case 1:
		dst[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(dst[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(dst[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(dst[off:], v)
	}
	f.gen++
	return nil
}

// ReadBytes copies len(dst) bytes starting at off into dst; bytes beyond
// the stored ones read as zero.
func (f *Frame) ReadBytes(off int, dst []byte) error {
	if err := CheckRange(off, len(dst), PageSize); err != nil {
		return err
	}
	n := 0
	if src := f.data(); off < len(src) {
		n = copy(dst, src[off:])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return nil
}

// WriteBytes copies src into the frame at off and bumps the generation.
func (f *Frame) WriteBytes(off int, src []byte) error {
	if err := CheckRange(off, len(src), PageSize); err != nil {
		return err
	}
	if off+len(src) > ShortSize {
		f.grow()
	}
	copy(f.data()[off:], src)
	f.gen++
	return nil
}

// Region returns the frame contents without copying: the short region
// if short is true, otherwise the whole page. The slice aliases the
// frame's storage — callers must copy (or encode) it before the frame
// can next be mutated, and must never write through it; Install into
// another frame makes a durable copy. A frame without a full page whose
// short bytes are all zero aliases the canonical zero page for the
// whole page, so sending a zero replica's contents costs no allocation.
func (f *Frame) Region(short bool) []byte {
	if short {
		return f.data()[:ShortSize]
	}
	if f.full == nil {
		if f.short == [ShortSize]byte{} {
			return zeroPage[:]
		}
		// The short bytes and the zero remainder live in different
		// arrays, so this is the one read that must create the full page.
		f.grow()
	}
	return f.full[:]
}

// RestRegion returns the superset remainder [ShortSize, PageSize)
// without copying; the same aliasing caveats as Region apply. A frame
// without a full page aliases the canonical zero page.
func (f *Frame) RestRegion() []byte {
	if f.full != nil {
		return f.full[ShortSize:]
	}
	return zeroPage[ShortSize:]
}

// Install copies data (ShortSize or PageSize bytes: a received short or
// full page, or another frame's Region) over the region it covers and
// adopts generation gen.
func (f *Frame) Install(data []byte, gen uint64) error {
	if len(data) != ShortSize && len(data) != PageSize {
		return fmt.Errorf("%w: install length %d", ErrBadAccess, len(data))
	}
	if len(data) == PageSize {
		f.grow()
	}
	copy(f.data(), data)
	f.gen = gen
	return nil
}

// InstallRest copies data (PageSize-ShortSize bytes: a received rest, or
// another frame's RestRegion) over the superset remainder without
// touching the short region or generation.
func (f *Frame) InstallRest(data []byte) error {
	if len(data) != PageSize-ShortSize {
		return fmt.Errorf("%w: rest length %d", ErrBadAccess, len(data))
	}
	f.grow()
	copy(f.full[ShortSize:], data)
	return nil
}
