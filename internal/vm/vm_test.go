package vm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		off  int
		size int
		val  uint64
	}{
		{"byte", 0, 1, 0xAB},
		{"word16", 2, 2, 0xBEEF},
		{"word32", 4, 4, 0xDEADBEEF},
		{"word64", 8, 8, 0x0123456789ABCDEF},
		{"word32 high", PageSize - 4, 4, 42},
		{"short boundary", ShortSize - 4, 4, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var f Frame
			if err := f.Store(tt.off, tt.size, tt.val); err != nil {
				t.Fatalf("Store: %v", err)
			}
			got, err := f.Load(tt.off, tt.size)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if got != tt.val {
				t.Errorf("got %#x, want %#x", got, tt.val)
			}
		})
	}
}

func TestStoreBumpsGeneration(t *testing.T) {
	var f Frame
	g0 := f.Gen()
	if err := f.Store(0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if f.Gen() != g0+1 {
		t.Errorf("gen = %d, want %d", f.Gen(), g0+1)
	}
	if err := f.WriteBytes(100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if f.Gen() != g0+2 {
		t.Errorf("gen = %d after WriteBytes, want %d", f.Gen(), g0+2)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	var f Frame
	cases := []struct {
		off, size int
	}{
		{-1, 4}, {PageSize, 1}, {PageSize - 3, 4}, {0, 0}, {0, -4},
	}
	for _, c := range cases {
		if _, err := f.Load(c.off, c.size); !errors.Is(err, ErrBadAccess) && c.size != 3 {
			t.Errorf("Load(%d,%d) err = %v, want ErrBadAccess", c.off, c.size, err)
		}
		if err := f.Store(c.off, c.size, 0); !errors.Is(err, ErrBadAccess) {
			t.Errorf("Store(%d,%d) err = %v, want ErrBadAccess", c.off, c.size, err)
		}
	}
}

func TestUnsupportedSize(t *testing.T) {
	var f Frame
	if _, err := f.Load(0, 3); !errors.Is(err, ErrBadAccess) {
		t.Errorf("Load size 3: err = %v, want ErrBadAccess", err)
	}
	if err := f.Store(0, 5, 1); !errors.Is(err, ErrBadAccess) {
		t.Errorf("Store size 5: err = %v, want ErrBadAccess", err)
	}
	if f.Tier() != 0 {
		t.Errorf("rejected store grew the tier to %d", f.Tier())
	}
}

func TestSnapshotInstallShort(t *testing.T) {
	var src Frame
	for i := 0; i < ShortSize; i++ {
		if err := src.Store(i, 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Store(ShortSize, 1, 0xFF); err != nil { // beyond short region
		t.Fatal(err)
	}
	src.SetGen(10)

	var dst Frame
	if err := dst.Store(ShortSize, 1, 0x55); err != nil {
		t.Fatal(err)
	}
	snap := src.Region(true)
	if len(snap) != ShortSize {
		t.Fatalf("short region length %d", len(snap))
	}
	if err := dst.Install(snap, src.Gen()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Region(true), src.Region(true)) {
		t.Error("short region not installed")
	}
	if v, _ := dst.Load(ShortSize, 1); v != 0x55 {
		t.Error("install of short region touched superset remainder")
	}
	if dst.Gen() != 10 {
		t.Errorf("gen = %d, want 10", dst.Gen())
	}
}

func TestSnapshotInstallFull(t *testing.T) {
	var src Frame
	if err := src.Store(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := src.Store(PageSize-1, 1, 2); err != nil {
		t.Fatal(err)
	}
	var dst Frame
	if err := dst.Install(src.Region(false), src.Gen()); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Load(0, 1); v != 1 {
		t.Error("full install did not copy page start")
	}
	if v, _ := dst.Load(PageSize-1, 1); v != 2 {
		t.Error("full install did not copy page end")
	}
}

// A frame installed from another's Region holds a copy: storing into
// the source afterwards leaves the installed frame as it was.
func TestSnapshotIsACopy(t *testing.T) {
	var src, dst Frame
	if err := src.Store(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := dst.Install(src.Region(true), src.Gen()); err != nil {
		t.Fatal(err)
	}
	if err := src.Store(0, 1, 0xEE); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Load(0, 1); v != 7 {
		t.Error("installed frame aliases its source's storage")
	}
}

func TestRestSnapshotInstall(t *testing.T) {
	var src Frame
	if err := src.Store(ShortSize, 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := src.Store(PageSize-1, 1, 8); err != nil {
		t.Fatal(err)
	}
	if err := src.Store(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	var dst Frame
	if err := dst.Store(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := dst.InstallRest(src.RestRegion()); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Load(ShortSize, 1); v != 9 {
		t.Error("rest not installed")
	}
	if v, _ := dst.Load(PageSize-1, 1); v != 8 {
		t.Error("rest not installed to page end")
	}
	if v, _ := dst.Load(0, 1); v != 1 {
		t.Error("InstallRest touched the short region")
	}
}

func TestInstallRejectsBadLengths(t *testing.T) {
	var f Frame
	if err := f.Install(make([]byte, 100), 0); !errors.Is(err, ErrBadAccess) {
		t.Errorf("Install(100 bytes) err = %v, want ErrBadAccess", err)
	}
	if err := f.InstallRest(make([]byte, 10)); !errors.Is(err, ErrBadAccess) {
		t.Errorf("InstallRest(10 bytes) err = %v, want ErrBadAccess", err)
	}
}

// The flyweight tiers: an untouched frame stores nothing outside itself,
// a short-region write or install lands in the inline short page without
// allocating, and only a write past ShortSize pays for the full page,
// which carries the short bytes over.
func TestFlyweightTierGrowth(t *testing.T) {
	var f Frame
	if f.Tier() != 0 {
		t.Fatalf("fresh frame tier = %d, want 0", f.Tier())
	}
	if v, err := f.Load(PageSize-8, 8); err != nil || v != 0 {
		t.Fatalf("zero-extended read = %d, %v", v, err)
	}
	if f.Tier() != 0 {
		t.Fatalf("read grew tier to %d", f.Tier())
	}
	short := make([]byte, ShortSize)
	if got := testing.AllocsPerRun(10, func() {
		if err := f.Store(0, 4, 0xAA); err != nil {
			t.Fatal(err)
		}
		if err := f.Install(short, 1); err != nil {
			t.Fatal(err)
		}
		if err := f.Store(0, 4, 0xAA); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("short store and install allocate %v objects, want 0", got)
	}
	if f.Tier() != 0 {
		t.Fatalf("short write tier = %d, want 0 (the short page is inline)", f.Tier())
	}
	if v, _ := f.Load(ShortSize, 8); v != 0 {
		t.Errorf("rest of a short-only frame reads %d, want 0", v)
	}
	if err := f.Store(PageSize-4, 4, 0xBB); err != nil {
		t.Fatal(err)
	}
	if f.Tier() != PageSize {
		t.Fatalf("full write tier = %d, want %d", f.Tier(), PageSize)
	}
	if v, _ := f.Load(0, 4); v != 0xAA {
		t.Errorf("tier growth lost the short bytes: %#x", v)
	}
	if err := f.Store(0, 4, 0xCC); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Load(0, 4); v != 0xCC || f.Region(true)[0] != 0xCC || f.Region(false)[0] != 0xCC {
		t.Errorf("a short store after growth did not land in the full page: %#x", v)
	}
}

// Region of an untouched frame aliases the canonical zero page rather
// than allocating, and stays all-zero.
func TestRegionOfUntouchedFrameIsZeroAlias(t *testing.T) {
	var f Frame
	full := f.Region(false)
	if len(full) != PageSize {
		t.Fatalf("full region length %d", len(full))
	}
	for i, b := range full {
		if b != 0 {
			t.Fatalf("byte %d of zero region = %#x", i, b)
		}
	}
	if f.Tier() != 0 {
		t.Errorf("Region materialized tier %d on an untouched frame", f.Tier())
	}
	short := f.Region(true)
	if len(short) != ShortSize {
		t.Fatalf("short region length %d", len(short))
	}
	rest := f.RestRegion()
	if len(rest) != PageSize-ShortSize {
		t.Fatalf("rest region length %d", len(rest))
	}
}

// A frame with short bytes but no full page, asked for its full-page
// region, must create the full page (the inline short bytes and the zero
// remainder cannot alias two different arrays) and preserve contents.
func TestRegionPromotesShortTier(t *testing.T) {
	var f Frame
	if err := f.Store(0, 4, 0x1234); err != nil {
		t.Fatal(err)
	}
	full := f.Region(false)
	if f.Tier() != PageSize {
		t.Fatalf("tier after full Region = %d, want %d", f.Tier(), PageSize)
	}
	if got := uint64(full[0]) | uint64(full[1])<<8; got != 0x1234 {
		t.Errorf("promoted region lost short bytes: %#x", got)
	}
	for i := ShortSize; i < PageSize; i++ {
		if full[i] != 0 {
			t.Fatalf("promoted region byte %d = %#x, want 0", i, full[i])
		}
	}
}

// Property: store-then-load round-trips for arbitrary aligned offsets and
// values, and never affects neighbouring bytes.
func TestLoadStoreProperty(t *testing.T) {
	prop := func(rawOff uint16, val uint64, szSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[int(szSel)%len(sizes)]
		off := int(rawOff) % (PageSize - 8)
		var f Frame
		if err := f.Store(off, size, val); err != nil {
			return false
		}
		got, err := f.Load(off, size)
		if err != nil {
			return false
		}
		mask := uint64(1)<<(8*size) - 1
		if size == 8 {
			mask = ^uint64(0)
		}
		return got == val&mask
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: short install + rest install reassembles the original page.
func TestSplitReassemblyProperty(t *testing.T) {
	prop := func(seed []byte) bool {
		var src Frame
		for i, b := range seed {
			off := (i * 37) % PageSize
			old, err := src.Load(off, 1)
			if err != nil {
				return false
			}
			if err := src.Store(off, 1, old^uint64(b)); err != nil {
				return false
			}
		}
		var dst Frame
		if err := dst.Install(src.Region(true), 1); err != nil {
			return false
		}
		if err := dst.InstallRest(src.RestRegion()); err != nil {
			return false
		}
		return bytes.Equal(dst.Region(false), src.Region(false))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
