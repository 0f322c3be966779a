package sim

import "math/bits"

// Table is an open-addressed hash table from uint64 keys to V: the
// in-flight index behind every MSHR-style structure on the memory and
// translation paths (cache miss groups, I-cache line fills, coalesced
// translations). Those hold a few dozen to a few thousand live keys,
// each inserted once, probed a few times and deleted once, on the
// hottest paths of a run, so a probe must cost a multiply and a short
// scan of one array.
//
// Linear probing over one slot array, Fibonacci hashing, load factor at
// most 1/2, and backward-shift deletion (no tombstones, so probe chains
// never degrade with churn). The table grows without bound and never
// shrinks: bounding an MSHR file would change simulated results, which
// is a modelling decision, not this type's. There is deliberately no
// iteration API: nothing may depend on slot order, which is what keeps
// results independent of the hash function.
//
// The zero value is an empty table ready to use. Pointers returned by
// Insert and Find stay valid only until the next Insert or Delete.
type Table[V any] struct {
	slots []tableSlot[V]
	n     int
	shift uint // 64 - log2(len(slots))
}

type tableSlot[V any] struct {
	key  uint64
	used bool
	val  V
}

const tableMinSlots = 8

// home returns k's preferred slot: the top log2(len(slots)) bits of a
// multiplicative hash, which spreads the sequential line addresses and
// page numbers this table is keyed by.
func (t *Table[V]) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// Len returns the number of keys present.
func (t *Table[V]) Len() int { return t.n }

// Find returns a pointer to k's value, or nil when k is absent.
func (t *Table[V]) Find(k uint64) *V {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return nil
		}
		if s.key == k {
			return &s.val
		}
	}
}

// Insert returns a pointer to k's value, adding k with a zero value
// first when it is absent; fresh reports whether it was added. One
// probe serves both the lookup and the insertion, which is the shape
// of every MSHR-style "join or start" decision.
func (t *Table[V]) Insert(k uint64) (v *V, fresh bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			s.key, s.used = k, true
			t.n++
			return &s.val, true
		}
		if s.key == k {
			return &s.val, false
		}
	}
}

// Delete removes k and returns its value; ok is false when k was
// absent. Entries after the hole shift back into it when the hole lies
// on their probe path, so every remaining key stays reachable from its
// home slot without tombstones.
func (t *Table[V]) Delete(k uint64) (v V, ok bool) {
	if t.n == 0 {
		return v, false
	}
	mask := len(t.slots) - 1
	hole := t.home(k)
	for ; ; hole = (hole + 1) & mask {
		s := &t.slots[hole]
		if !s.used {
			return v, false
		}
		if s.key == k {
			break
		}
	}
	v = t.slots[hole].val
	for j := (hole + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (hole, j]: moving it before its home would
		// hide it from Find.
		if (j-t.home(t.slots[j].key))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = tableSlot[V]{}
	t.n--
	return v, true
}

// grow doubles the slot array (or allocates the first one) and
// reinserts every entry.
func (t *Table[V]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < tableMinSlots {
		size = tableMinSlots
	}
	t.slots = make([]tableSlot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for i := range old {
		if !old[i].used {
			continue
		}
		j := t.home(old[i].key)
		for t.slots[j].used {
			j = (j + 1) & mask
		}
		t.slots[j] = old[i]
	}
}
