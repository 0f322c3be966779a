// Package tlb implements the set-associative translation lookaside
// buffers of the baseline GPU (Table 1: per-CU 32-entry fully-
// associative L1 TLBs, a shared 512-entry 16-way L2 TLB, and the
// IOMMU's device TLBs) plus the per-page request coalescer that merges
// concurrent misses to the same page (§2.1).
package tlb

import (
	"fmt"

	"gpureach/internal/assoc"
	"gpureach/internal/vm"
)

// Entry is one cached translation. It carries the address-space tags the
// paper stores alongside each translation (Figure 7a): VPN tag, VM-ID
// and VRF-ID.
type Entry struct {
	Space vm.SpaceID
	VPN   vm.VPN
	PFN   vm.PFN
}

// Key returns the lookup key combining VPN and address-space tags.
func (e Entry) Key() Key { return MakeKey(e.Space, e.VPN) }

// Key identifies a translation across address spaces.
type Key uint64

// MakeKey builds a Key from space tags and a VPN.
func MakeKey(space vm.SpaceID, vpn vm.VPN) Key {
	return Key(uint64(vpn)<<4 | uint64(space.Pack()))
}

// VPN extracts the page number back out of a key.
func (k Key) VPN() vm.VPN { return vm.VPN(k >> 4) }

// Space extracts the address-space tags back out of a key. Exact
// because VM-ID and VRF-ID are 2-bit architectural fields.
func (k Key) Space() vm.SpaceID { return vm.UnpackSpaceID(uint8(k & 15)) }

// Entry reconstructs the full cached translation from a key and the
// stored frame number — the inverse of Entry.Key plus payload.
func (k Key) Entry(pfn vm.PFN) Entry {
	return Entry{Space: k.Space(), VPN: k.VPN(), PFN: pfn}
}

// Stats counts TLB events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Fills      uint64
	Shootdowns uint64
}

// HitRate returns hits/(hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// TLB is a set-associative translation cache with true-LRU replacement.
// sets == 1 gives a fully-associative structure.
//
// Tags, valid bits and recency live in the shared assoc.Ways kernel: a
// probe is one compare per way over a dense tag array, and the LRU
// victim is the tail of the set's recency ring, found without a scan.
// The only payload stored per way is the frame number: the rest of an
// Entry is its key (Key.Entry reconstructs it exactly), so fills and
// evictions move 8 bytes of payload instead of 24.
type TLB struct {
	name    string
	ways    assoc.Ways
	pfns    []vm.PFN
	numSets uint64
	stats   Stats
}

// New creates a TLB with the given geometry. entries must be divisible
// by ways; ways == entries gives full associativity.
func New(name string, entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry entries=%d ways=%d", entries, ways))
	}
	numSets := entries / ways
	return &TLB{
		name:    name,
		ways:    assoc.New(numSets, ways),
		pfns:    make([]vm.PFN, entries),
		numSets: uint64(numSets),
	}
}

// Name returns the TLB's diagnostic name.
func (t *TLB) Name() string { return t.name }

// Entries returns total capacity.
func (t *TLB) Entries() int { return len(t.pfns) }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// set returns key's set index.
func (t *TLB) set(k Key) int { return int(uint64(k.VPN()) % t.numSets) }

// Lookup searches for key; on a hit the entry becomes MRU.
func (t *TLB) Lookup(key Key) (Entry, bool) {
	if w := t.ways.Find(t.set(key), uint64(key)); w >= 0 {
		t.ways.Touch(w)
		t.stats.Hits++
		return key.Entry(t.pfns[w]), true
	}
	t.stats.Misses++
	return Entry{}, false
}

// Probe is Lookup without touching LRU state or counters — used by
// sharing analyses (Fig 14a) and tests.
func (t *TLB) Probe(key Key) (Entry, bool) {
	if w := t.ways.Find(t.set(key), uint64(key)); w >= 0 {
		return key.Entry(t.pfns[w]), true
	}
	return Entry{}, false
}

// Insert fills e into the lowest-index free way of its set, else over
// the set's LRU way. It returns the evicted victim entry, if any.
// Inserting a key that is already present refreshes the existing way
// (new frame, MRU) instead of duplicating it.
func (t *TLB) Insert(e Entry) (victim Entry, evicted bool) {
	key := e.Key()
	set := t.set(key)
	if w := t.ways.Find(set, uint64(key)); w >= 0 {
		t.pfns[w] = e.PFN
		t.ways.Touch(w)
		return Entry{}, false
	}
	w, old, evicted := t.ways.Fill(set, uint64(key))
	if evicted {
		victim = Key(old).Entry(t.pfns[w])
		t.stats.Evictions++
	}
	t.pfns[w] = e.PFN
	t.stats.Fills++
	return victim, evicted
}

// Invalidate removes key if present (TLB shootdown, §7.1) and reports
// whether an entry was removed.
func (t *TLB) Invalidate(key Key) bool {
	w := t.ways.Find(t.set(key), uint64(key))
	if w < 0 {
		return false
	}
	t.ways.Clear(w)
	t.stats.Shootdowns++
	return true
}

// Flush invalidates everything.
func (t *TLB) Flush() { t.ways.Flush() }

// Occupied returns the number of valid entries.
func (t *TLB) Occupied() int { return t.ways.Len() }

// ForEach calls fn for every valid entry in way order: set by set,
// lowest way first.
func (t *TLB) ForEach(fn func(Entry)) {
	for w := range t.pfns {
		if t.ways.Valid(w) {
			fn(Key(t.ways.Key(w)).Entry(t.pfns[w]))
		}
	}
}
