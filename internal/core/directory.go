package core

import (
	"fmt"
	"unsafe"

	"mether/internal/proto"
	"mether/internal/vm"
)

// The page directory is two-level: a dense slice of shard pointers with
// leaf shards of shardSize pageState values that materialize on first
// touch. A host's directory footprint therefore tracks its working set
// (the pages it has actually faulted, served or snooped) instead of the
// whole page space, which is what lets a 10k-host world — where each
// host touches a couple of pages out of 10k — fit in memory. The hot
// path stays a branch plus two indexes: no map, and pageState values
// live inline in the shard so their addresses are stable for the
// lifetime of the driver.
//
// A shard is 16 pages: at 10 000 pages, a 5 000-byte pointer table plus
// 2 944 bytes per touched shard. Larger shards charge a host that
// touches two pages for dozens it does not (64 pages are 10.7 KB a
// shard); smaller ones grow the table past what they save (at 8 pages
// the table alone is 10 KB per host).
const (
	shardBits = 4
	shardSize = 1 << shardBits
	shardMask = shardSize - 1
)

type pageShard [shardSize]pageState

// pageRange is a half-open [lo, hi) range of seeded replica pages.
type pageRange struct{ lo, hi vm.PageID }

// page returns (creating lazily) the state for a page. A freshly
// materialized entry picks up any replica seeding recorded for it, so
// lazy materialization is indistinguishable from the eager per-page
// seeding it replaced: the seed was recorded at world build, before any
// event could have touched the page.
func (d *Driver) page(id vm.PageID) *pageState {
	if int(id) >= d.cfg.NumPages {
		panic(fmt.Sprintf("core: page %d beyond configured space", id))
	}
	s := d.shards[id>>shardBits]
	if s == nil {
		s = new(pageShard)
		d.shards[id>>shardBits] = s
	}
	st := &s[id&shardMask]
	if !st.inited {
		st.inited = true
		st.page = id
		st.grantedTo = proto.NoOwner
		st.grantedRestTo = proto.NoOwner
		if d.seedCovers(id) {
			applySeed(st)
		}
		if d.transits != nil && d.transits[id>>6]&(1<<(id&63)) != 0 {
			// Transits were observed while the page was unmaterialized
			// (LazyReplicas mode). Every consumer of transitSeq compares it
			// for equality against a snapshot taken after materialization,
			// so collapsing n observed transits to 1 preserves exactly the
			// n-vs-0 inequality the eager path would have produced.
			st.transitSeq = 1
		}
	}
	return st
}

// peek returns the state for a page if it has been materialized, nil
// otherwise. It never allocates: the receive path uses it to decide
// whether a snooped frame concerns this host at all.
func (d *Driver) peek(id vm.PageID) *pageState {
	s := d.shards[id>>shardBits]
	if s == nil {
		return nil
	}
	st := &s[id&shardMask]
	if !st.inited {
		return nil
	}
	return st
}

// applySeed installs the warm zero-replica state on an entry: resident
// short region, and a resident remainder unless this host holds the
// rest authority. A no-op on the owning host (the owner's copy is not a
// replica).
func applySeed(st *pageState) {
	if st.owner {
		return
	}
	st.shortPresent = true
	if !st.restOwner {
		st.restPresent = true
	}
}

// seedCovers reports whether a page falls in a recorded seed range.
// Worlds record at most a handful of ranges (one per warmed segment),
// so the scan is a few compares on the materialization slow path only.
func (d *Driver) seedCovers(id vm.PageID) bool {
	for _, r := range d.seedRanges {
		if id >= r.lo && id < r.hi {
			return true
		}
	}
	return false
}

// SeedReplicaRange records warm zero-filled read-only replicas for every
// page in [lo, hi), as if a broadcast of each owner's (still zero-
// filled, generation-zero) copy had already transited. The range is
// applied immediately to pages already materialized (created pages,
// earlier touches) and lazily — at first touch — to the rest, so
// seeding a segment costs one nil check per shard in the range, plus the
// entries of the shards that exist, instead of a state per page: this is
// what makes warm-start world construction linear in cluster size.
// Large-cluster scenarios seed replicas at world build to model a
// long-running cluster with resident copies: without it, every host's
// attach must demand-fetch every page, and the resulting request
// broadcasts — each ingested by every host — make cold start an
// O(hosts³) event storm that swamps the workload being measured.
func (d *Driver) SeedReplicaRange(lo, hi vm.PageID) {
	if int(hi) > d.cfg.NumPages || lo > hi {
		panic(fmt.Sprintf("core: seed range [%d,%d) beyond configured space", lo, hi))
	}
	d.seedRanges = append(d.seedRanges, pageRange{lo, hi})
	for id := lo; id < hi; {
		s := d.shards[id>>shardBits]
		if s == nil {
			// Skip to the next shard boundary.
			id = (id | shardMask) + 1
			continue
		}
		if st := &s[id&shardMask]; st.inited {
			applySeed(st)
		}
		id++
	}
}

// SeedReplica seeds a warm replica of a single page; see
// SeedReplicaRange. A no-op on the owning host.
func (d *Driver) SeedReplica(id vm.PageID) {
	d.SeedReplicaRange(id, id+1)
}

// noteTransit records a TypeData transit of a page this host has no
// state for (LazyReplicas receive path): the bitmap stands in for the
// per-page transit counter until the page materializes.
func (d *Driver) noteTransit(id vm.PageID) {
	if d.transits == nil {
		d.transits = make([]uint64, (d.cfg.NumPages+63)/64)
	}
	d.transits[id>>6] |= 1 << (id & 63)
}

// OwnsPage reports whether this host currently holds the page's
// consistent copy. It peeks — an unmaterialized entry holds no
// authority by construction — so orphan scans never perturb the
// directory they inspect.
func (d *Driver) OwnsPage(id vm.PageID) bool {
	st := d.peek(id)
	return st != nil && st.owner
}

// MemFootprint returns the driver's structural memory footprint in
// bytes: directory shards, the frames' full pages, queues, caches and
// scratch buffers. It is a deterministic walk of sizes the driver's own
// behaviour decides — unlike runtime heap statistics it is identical
// across runs, GC timing and sweep worker counts, so it can live in
// reports that must stay byte-identical.
func (d *Driver) MemFootprint() uint64 {
	// The port is held as a two-word interface but accounted as the
	// single device pointer it stands for: the extra word is Go's
	// dispatch plumbing, not driver state, and counting it would make
	// the footprint depend on how the driver names its NIC rather than
	// on what the NIC is.
	b := uint64(unsafe.Sizeof(*d)) - uint64(unsafe.Sizeof(uintptr(0)))
	b += uint64(cap(d.shards)) * uint64(unsafe.Sizeof((*pageShard)(nil)))
	for _, s := range d.shards {
		if s == nil {
			continue
		}
		b += uint64(unsafe.Sizeof(*s))
		for i := range s {
			st := &s[i]
			b += uint64(st.frame.Tier())
			b += uint64(cap(st.deferred)) * uint64(unsafe.Sizeof(deferredReq{}))
		}
	}
	b += uint64(cap(d.transits)) * 8
	b += uint64(cap(d.workq)) * uint64(unsafe.Sizeof(workItem{}))
	b += uint64(cap(d.txBuf))
	b += uint64(cap(d.redundant))*2 + uint64(cap(d.redundantEnc))
	b += uint64(cap(d.seedRanges)) * uint64(unsafe.Sizeof(pageRange{}))
	return b
}
