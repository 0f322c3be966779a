// Package ducati implements the DUCATI comparator (Jaleel, Ebrahimi,
// Duncan — TACO 2019) the paper evaluates against in §6.3.4: address
// translations cached in a large carved-out region of GPU device
// memory, accessed through the last-level (L2) data cache, looked up
// after an L2-TLB miss and before a page walk.
//
// The defining property the paper highlights is that DUCATI *contends*
// for LLC capacity and memory bandwidth instead of opportunistically
// using idle SRAM: every lookup and fill here is a real access through
// the data-cache hierarchy handed to New, so translation traffic evicts
// data lines and occupies DRAM exactly as the original proposal would.
package ducati

import (
	"gpureach/internal/cache"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// Stats reports DUCATI activity.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Fills      uint64
	Conflicts  uint64 // direct-mapped slot overwrites
	Shootdowns uint64
}

// HitRate returns hits/lookups, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

type slot struct {
	key   tlb.Key
	entry tlb.Entry
	valid bool
}

// Store is the in-memory translation store. It is direct-mapped over a
// carved physical region (the part-of-memory TLB organization of
// POM-TLB / DUCATI): slot i lives at base + 8i, so a lookup is one
// 8-byte load through the LLC and a fill one store.
type Store struct {
	mem     cache.Memory
	base    vm.PA
	slots   []slot
	reqPool sim.Pool[lookupReq]
	stats   Stats
}

// LookupHandler receives the outcome of a LookupEvent probe.
type LookupHandler func(ctx any, e tlb.Entry, ok bool)

// lookupReq is the pooled context of one in-memory probe.
type lookupReq struct {
	s   *Store
	key tlb.Key
	i   int
	h   LookupHandler
	ctx any
}

// New creates a store of `entries` slots at physical address base,
// accessed through mem (normally the shared L2 data cache).
func New(mem cache.Memory, base vm.PA, entries int) *Store {
	if entries <= 0 {
		panic("ducati: need at least one slot")
	}
	return &Store{mem: mem, base: base, slots: make([]slot, entries)}
}

// Capacity returns the number of slots.
func (s *Store) Capacity() int { return len(s.slots) }

// Stats returns a copy of the counters.
func (s *Store) Stats() Stats { return s.stats }

func (s *Store) index(key tlb.Key) int {
	// Multiplicative hash spreads VPNs that share low bits.
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(s.slots)))
}

func (s *Store) slotAddr(i int) vm.PA { return s.base + vm.PA(i*8) }

// Lookup probes the store for key. The probe costs one memory access
// through the LLC; done receives the entry and whether it was present.
func (s *Store) Lookup(key tlb.Key, done func(tlb.Entry, bool)) {
	s.LookupEvent(key, callLookupClosure, done)
}

// callLookupClosure adapts the closure-style Lookup API onto the
// handler form: the func value rides in the ctx word.
func callLookupClosure(ctx any, e tlb.Entry, ok bool) { ctx.(func(tlb.Entry, bool))(e, ok) }

// LookupEvent is the allocation-free form of Lookup: h(ctx, entry, ok)
// runs when the LLC access completes.
func (s *Store) LookupEvent(key tlb.Key, h LookupHandler, ctx any) {
	s.stats.Lookups++
	i := s.index(key)
	r := s.reqPool.Get()
	r.s = s
	r.key = key
	r.i = i
	r.h = h
	r.ctx = ctx
	s.mem.AccessEvent(s.slotAddr(i), false, lookupDone, r)
}

// lookupDone inspects the probed slot once the LLC read returns.
func lookupDone(x any) {
	r := x.(*lookupReq)
	s := r.s
	h, ctx, key := r.h, r.ctx, r.key
	sl := s.slots[r.i]
	r.s, r.h, r.ctx = nil, nil, nil
	s.reqPool.Put(r)
	if sl.valid && sl.key == key {
		s.stats.Hits++
		h(ctx, sl.entry, true)
		return
	}
	h(ctx, tlb.Entry{}, false)
}

// nop discards a completion (fire-and-forget fills).
func nop(any) {}

// Fill stores e, overwriting whatever occupied its slot. The store is a
// write-through memory write via the LLC (fire and forget — fills are
// off the critical path but still consume bandwidth).
func (s *Store) Fill(e tlb.Entry) {
	key := e.Key()
	i := s.index(key)
	if s.slots[i].valid && s.slots[i].key != key {
		s.stats.Conflicts++
	}
	s.slots[i] = slot{key: key, entry: e, valid: true}
	s.stats.Fills++
	s.mem.AccessEvent(s.slotAddr(i), true, nop, nil)
}

// WarmFill is the functional-warming form of Fill used by sampled
// execution's fast-forward mode: the same slot overwrite and
// Fills/Conflicts accounting, but no LLC write — fast-forward skips
// all memory traffic.
func (s *Store) WarmFill(e tlb.Entry) {
	key := e.Key()
	i := s.index(key)
	if s.slots[i].valid && s.slots[i].key != key {
		s.stats.Conflicts++
	}
	s.slots[i] = slot{key: key, entry: e, valid: true}
	s.stats.Fills++
}

// WarmLookup is the functional-warming form of Lookup: the slot check
// and Lookups/Hits accounting of the real probe without the LLC read.
func (s *Store) WarmLookup(key tlb.Key) (tlb.Entry, bool) {
	s.stats.Lookups++
	sl := s.slots[s.index(key)]
	if sl.valid && sl.key == key {
		s.stats.Hits++
		return sl.entry, true
	}
	return tlb.Entry{}, false
}

// Probe reports whether key is resident, without the memory access a
// real Lookup costs and without touching the counters. Invariant probes
// (internal/check) use it: a shootdown must leave no trace here either.
func (s *Store) Probe(key tlb.Key) (tlb.Entry, bool) {
	sl := s.slots[s.index(key)]
	if sl.valid && sl.key == key {
		return sl.entry, true
	}
	return tlb.Entry{}, false
}

// ForEach calls fn for every resident translation (coherence probes).
func (s *Store) ForEach(fn func(tlb.Entry)) {
	for i := range s.slots {
		if s.slots[i].valid {
			fn(s.slots[i].entry)
		}
	}
}

// Shootdown invalidates key if present (§7.1) and reports whether an
// entry was removed.
func (s *Store) Shootdown(key tlb.Key) bool {
	i := s.index(key)
	if s.slots[i].valid && s.slots[i].key == key {
		s.slots[i].valid = false
		s.stats.Shootdowns++
		return true
	}
	return false
}
