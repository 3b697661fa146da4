// Package memnet is a behavioural model of MemNet (Delp & Farber), the
// hardware distributed shared memory the paper compares against: a
// 200 Mb/s insertion-modification token ring whose interfaces hold 32-byte
// chunks and satisfy faults entirely in hardware — no operating system,
// no user-level server, microsecond latencies.
//
// The paper's surprising result is that the best user protocol for
// Mether (software, 8 ms+ fault paths) is *identical in shape* to the
// best protocol previously derived for MemNet: keep write capability
// stationary, use pages/chunks as one-way links, and block for updates
// instead of polling. This package exists to reproduce that claim: it
// runs the same three protocol shapes the Mether study runs and reports
// comparable metrics, so the cross-system ordering can be checked.
//
// The model keeps only what the claim needs: ring serialization and hop
// latency, chunk ownership, remote fetches, update broadcasts that
// watchers can block on, and host check costs. Everything is driven by
// the same deterministic simulation kernel as the Mether world.
package memnet

import (
	"fmt"
	"time"

	"mether/internal/sim"
)

// ChunkID names a chunk in the MemNet address space.
type ChunkID uint32

// ChunkSize is the MemNet transfer unit in bytes.
const ChunkSize = 32

// Params is the hardware model. Defaults follow the MemNet prototype:
// 200 Mb/s ring, sub-microsecond hop delay, and a CPU check cost in the
// microseconds (the host still executes a load/compare loop).
type Params struct {
	RingBps   int64
	HopDelay  time.Duration
	Hosts     int
	CheckCost time.Duration // host spin-check cost
	IncCost   time.Duration // host increment cost
}

// DefaultParams returns the MemNet-prototype-class model.
func DefaultParams(hosts int) Params {
	return Params{
		RingBps:   200_000_000,
		HopDelay:  500 * time.Nanosecond,
		Hosts:     hosts,
		CheckCost: 2 * time.Microsecond,
		IncCost:   2 * time.Microsecond,
	}
}

// Stats aggregates ring counters.
type Stats struct {
	Fetches   uint64 // remote chunk reads/ownership moves
	Updates   uint64 // write broadcasts observed by watchers
	RingBytes uint64
	BusyTime  time.Duration
}

// Ring is one MemNet token ring with its chunk store.
type Ring struct {
	k         *sim.Kernel
	p         Params
	busyUntil time.Duration
	chunks    map[ChunkID]*chunk
	stats     Stats
}

type chunk struct {
	owner    int // interface holding the authoritative copy
	data     [ChunkSize]byte
	gen      uint64
	watchers []*sim.Proc // procs blocked until the next update transit
}

// New builds a ring.
func New(k *sim.Kernel, p Params) *Ring {
	if p.Hosts < 1 {
		panic("memnet: need at least one host")
	}
	return &Ring{k: k, p: p, chunks: make(map[ChunkID]*chunk)}
}

// Stats returns the ring counters.
func (r *Ring) Stats() Stats { return r.stats }

// Utilization returns the busy fraction of the ring over wall.
func (r *Ring) Utilization(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(r.stats.BusyTime) / float64(wall)
}

// Create homes a chunk on an interface.
func (r *Ring) Create(id ChunkID, owner int) {
	if owner < 0 || owner >= r.p.Hosts {
		panic(fmt.Sprintf("memnet: owner %d out of range", owner))
	}
	r.chunks[id] = &chunk{owner: owner}
}

func (r *Ring) chunk(id ChunkID) *chunk {
	c, ok := r.chunks[id]
	if !ok {
		panic(fmt.Sprintf("memnet: chunk %d not created", id))
	}
	return c
}

// hops returns the ring distance from src to dst.
func (r *Ring) hops(src, dst int) int {
	d := dst - src
	if d < 0 {
		d += r.p.Hosts
	}
	if d == 0 {
		d = r.p.Hosts // full circulation
	}
	return d
}

// xferTime models one chunk-sized ring transaction from src to dst:
// serialization at ring bandwidth plus per-hop insertion delay, queued
// behind current ring occupancy.
func (r *Ring) xferTime(src, dst int, bytes int) time.Duration {
	ser := time.Duration(int64(bytes+8) * 8 * int64(time.Second) / r.p.RingBps)
	start := r.k.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	total := ser + time.Duration(r.hops(src, dst))*r.p.HopDelay
	r.busyUntil = start + ser // the ring is occupied for the serialization
	r.stats.RingBytes += uint64(bytes + 8)
	r.stats.BusyTime += ser
	return start + total - r.k.Now()
}

// Proc is a host CPU thread on the ring; hardware fetches stall it.
type Proc struct {
	r    *Ring
	sp   *sim.Proc
	host int
}

// Spawn starts host code on interface host.
func (r *Ring) Spawn(host int, name string, fn func(p *Proc)) {
	r.k.Spawn(name, func(sp *sim.Proc) {
		fn(&Proc{r: r, sp: sp, host: host})
	})
}

// Compute burns host CPU (checks, increments).
func (p *Proc) Compute(d time.Duration) { p.sp.Sleep(d) }

// Now returns virtual time.
func (p *Proc) Now() time.Duration { return p.sp.Now() }

// Load32 reads a word from a chunk. A local chunk costs nothing extra; a
// remote one stalls the CPU for a ring round trip (request + response) —
// MemNet has no caching of remote chunks, which is why spinning on a
// remote chunk floods the ring.
func (p *Proc) Load32(id ChunkID, off int) uint32 {
	c := p.r.chunk(id)
	if c.owner != p.host {
		req := p.r.xferTime(p.host, c.owner, 8)          // request slot
		resp := p.r.xferTime(c.owner, p.host, ChunkSize) // chunk comes back
		p.r.stats.Fetches++
		p.sp.Sleep(req + resp)
	}
	return le32(c.data[off:])
}

// Store32 writes a word. Writing a remote chunk first moves ownership
// (reserved-area modification requires holding the chunk); the write then
// circulates the ring, refreshing watchers — the insertion-modification
// property that makes MemNet broadcasts free.
func (p *Proc) Store32(id ChunkID, off int, v uint32) {
	c := p.r.chunk(id)
	if c.owner != p.host {
		req := p.r.xferTime(p.host, c.owner, 8)
		resp := p.r.xferTime(c.owner, p.host, ChunkSize)
		p.r.stats.Fetches++
		p.sp.Sleep(req + resp)
		c.owner = p.host
	}
	put32(c.data[off:], v)
	c.gen++
	// The modification circulates: every watcher sees it one circulation
	// later.
	circ := p.r.xferTime(p.host, p.host, ChunkSize)
	p.r.stats.Updates += uint64(len(c.watchers))
	watchers := c.watchers
	c.watchers = nil
	p.r.k.AfterCoalesced(circ, "memnet update", func() {
		for _, w := range watchers {
			w.Wake()
		}
	})
}

// WaitUpdate blocks until the next modification of the chunk circulates
// the ring — the hardware analogue of Mether's data-driven fault.
func (p *Proc) WaitUpdate(id ChunkID) {
	c := p.r.chunk(id)
	c.watchers = append(c.watchers, p.sp)
	p.sp.Park("memnet wait " + fmt.Sprint(id))
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
