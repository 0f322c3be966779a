// Package cache implements the GPU's data-cache hierarchy (Table 1:
// 32KB 8-way L1 per CU, 4MB 16-way shared L2) as generic write-back,
// write-allocate set-associative caches with LRU replacement, a
// pipelined port, MSHR-style miss merging, and an asynchronous backing
// interface so that misses generate real traffic in the next level and,
// ultimately, the DRAM model.
package cache

import (
	"fmt"

	"gpureach/internal/assoc"
	"gpureach/internal/sim"
	"gpureach/internal/vm"
)

// Memory is anything that can service a physical-address access. The
// event form is the only form: h(ctx) runs when the data is available
// (or, for writes, accepted), so a completion needs no captured closure
// and the steady-state access path allocates nothing. Cache and
// dram.DRAM are the production memories.
type Memory interface {
	AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any)
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MergedMiss uint64
	Writebacks uint64
	Evictions  uint64
}

// HitRate returns hits/accesses, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// waiter is one request merged onto an in-flight miss. Each waiter
// keeps its own write flag: the line is filled (or re-dirtied) once per
// requester.
type waiter struct {
	h     sim.Handler
	ctx   any
	write bool
}

// miss is the pooled context of one outstanding miss group.
type miss struct {
	c       *Cache
	la      uint64
	addr    vm.PA
	waiters []waiter
}

// Cache is one level of the data hierarchy.
type Cache struct {
	name   string
	eng    *sim.Engine
	parent Memory
	// ways holds the line addresses and LRU order of every set; dirty
	// is the per-way payload beside it.
	ways       assoc.Ways
	dirty      []bool
	numSets    uint64
	lineBits   uint
	hitLatency sim.Time
	port       *sim.Port
	mshr       sim.Table[*miss] // in-flight miss groups by line address
	missPool   sim.Pool[miss]
	stats      Stats
}

// Config describes a cache level.
type Config struct {
	Name string
	// SizeBytes / LineBytes / Ways define the geometry.
	SizeBytes int
	LineBytes int
	Ways      int
	// HitLatency is the access latency in cycles for a tag+data hit.
	HitLatency sim.Time
	// PortInterval is the initiation interval of the single access port.
	PortInterval sim.Time
}

// New builds a cache on engine eng backed by parent.
func New(eng *sim.Engine, cfg Config, parent Memory) *Cache {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %q: bad geometry %+v", cfg.Name, cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %q: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways))
	}
	lineBits := uint(0)
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		lineBits++
	}
	if 1<<lineBits != cfg.LineBytes {
		panic(fmt.Sprintf("cache %q: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	numSets := lines / cfg.Ways
	return &Cache{
		name:       cfg.Name,
		eng:        eng,
		parent:     parent,
		ways:       assoc.New(numSets, cfg.Ways),
		dirty:      make([]bool, lines),
		lineBits:   lineBits,
		hitLatency: cfg.HitLatency,
		port:       sim.NewPort(eng, cfg.PortInterval),
		numSets:    uint64(numSets),
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Port exposes the access port (for utilization reporting).
func (c *Cache) Port() *sim.Port { return c.port }

func (c *Cache) lineAddr(addr vm.PA) uint64 { return uint64(addr) >> c.lineBits }

// set selects a line's set with an XOR-folded index, as GPU L2 caches
// do: power-of-two strides (a matrix whose row is exactly one page,
// page-table node arrays) otherwise resonate onto a handful of sets and
// the model falls into interleaving-sensitive conflict-thrash regimes
// that no real memory system exhibits.
func (c *Cache) set(lineAddr uint64) int {
	h := lineAddr ^ lineAddr>>12 ^ lineAddr>>23
	return int(h % c.numSets)
}

// nop discards a completion (fire-and-forget writebacks).
func nop(any) {}

// missStart issues the in-flight miss's parent access once the tag
// probe completes.
func missStart(x any) {
	m := x.(*miss)
	m.c.parent.AccessEvent(m.addr, false, missDone, m)
}

// missDone drains an MSHR entry: fill once per requester (each with its
// own write intent), then complete them in merge order.
func missDone(x any) {
	m := x.(*miss)
	c := m.c
	c.mshr.Delete(m.la)
	for i := range m.waiters {
		c.fill(m.la, m.waiters[i].write)
		m.waiters[i].h(m.waiters[i].ctx)
	}
	for i := range m.waiters {
		m.waiters[i] = waiter{} // release ctx refs before pooling
	}
	m.waiters = m.waiters[:0]
	m.c = nil
	c.missPool.Put(m)
}

// AccessEvent requests the line containing addr. h(ctx) runs when the
// access completes (after hit latency on a hit; after the miss resolves
// through the parent otherwise). Writes mark the line dirty; dirty
// victims are written back to the parent asynchronously.
func (c *Cache) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	grant := c.port.Acquire()
	la := c.lineAddr(addr)
	c.stats.Accesses++

	if w := c.ways.Find(c.set(la), la); w >= 0 {
		c.ways.Touch(w)
		if write {
			c.dirty[w] = true
		}
		c.stats.Hits++
		c.eng.AtEvent(grant+c.hitLatency, h, ctx)
		return
	}

	c.stats.Misses++
	slot, fresh := c.mshr.Insert(la)
	if !fresh {
		m := *slot
		m.waiters = append(m.waiters, waiter{h: h, ctx: ctx, write: write})
		c.stats.MergedMiss++
		return
	}
	m := c.missPool.Get()
	m.c = c
	m.la = la
	m.addr = addr
	m.waiters = append(m.waiters, waiter{h: h, ctx: ctx, write: write})
	*slot = m
	c.eng.AtEvent(grant+c.hitLatency, missStart, m)
}

// fill installs lineAddr, evicting LRU and writing back dirty victims.
func (c *Cache) fill(lineAddr uint64, dirty bool) {
	set := c.set(lineAddr)
	if w := c.ways.Find(set, lineAddr); w >= 0 {
		// Raced with another fill of the same line.
		if dirty {
			c.dirty[w] = true
		}
		return
	}
	w, old, evicted := c.ways.Fill(set, lineAddr)
	if evicted {
		if c.dirty[w] {
			c.stats.Writebacks++
			c.parent.AccessEvent(vm.PA(old<<c.lineBits), true, nop, nil)
		}
		c.stats.Evictions++
	}
	c.dirty[w] = dirty
}

// Contains reports whether the line holding addr is resident (no LRU or
// counter side effects).
func (c *Cache) Contains(addr vm.PA) bool {
	la := c.lineAddr(addr)
	return c.ways.Find(c.set(la), la) >= 0
}

// Flush invalidates the whole cache, writing back dirty lines.
func (c *Cache) Flush() {
	for w, d := range c.dirty { // only valid ways are ever dirty
		if d {
			c.stats.Writebacks++
			c.parent.AccessEvent(vm.PA(c.ways.Key(w)<<c.lineBits), true, nop, nil)
		}
	}
	c.ways.Flush()
	clear(c.dirty)
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Inflight returns the number of outstanding miss groups (diagnostics).
func (c *Cache) Inflight() int { return c.mshr.Len() }
