// Package assoc is the tag-array and true-LRU kernel shared by every
// set-associative structure on the translation and data paths: the
// GPU and IOMMU TLBs, the data caches and the page-walk caches. Each
// of those probes a set for a key and, on a miss, fills the
// lowest-index empty way or else evicts the least recently used one;
// Ways does both without scanning for a minimum.
//
// Layout, all plain slices indexed by global way number (set s owns
// ways [s*n, (s+1)*n)):
//
//   - tags holds key|valid, where valid is bit 63, and 0 for an empty
//     way, so a probe reads one array and makes one compare per way.
//     Keys must stay below 2^63.
//   - prev/next form one circular recency ring per set over its valid
//     ways; head[s] is the set's MRU way (-1 when the set is empty) and
//     prev[head[s]] its LRU way. A hit moves the way to the head; an
//     eviction reuses the tail and only rotates the head back by one.
//   - empty counts empty ways across the whole structure, so fills
//     into a full structure skip the free-way scan.
//
// Placement is exactly that of a strictly increasing LRU clock stamped
// on every hit and fill: the minimum stamp in a set is always its ring
// tail, and the free-way scan still picks the lowest index. Callers
// that iterate ways in index order therefore see the same order too.
package assoc

import "math/bits"

const valid = uint64(1) << 63

// Ways is the tag array and recency rings of one set-associative
// structure. Payloads (frame numbers, dirty bits) live in caller-owned
// slices indexed by the way numbers Ways returns. Owners hold a Ways by
// value; it must not be copied once in use.
type Ways struct {
	tags  []uint64
	prev  []int32
	next  []int32
	head  []int32
	n     int
	shift int // log2(n) when n is a power of two, else -1
	empty int
}

// New returns an empty structure of sets sets × ways ways. ways may be
// zero: such a structure holds nothing, and Fill reports way -1.
func New(sets, ways int) Ways {
	if sets <= 0 || ways < 0 {
		panic("assoc: bad geometry")
	}
	n := sets * ways
	links := make([]int32, 2*n+sets) // prev, next and head in one allocation
	w := Ways{
		tags:  make([]uint64, n),
		prev:  links[:n:n],
		next:  links[n : 2*n : 2*n],
		head:  links[2*n:],
		n:     ways,
		shift: -1,
	}
	if ways > 0 && ways&(ways-1) == 0 {
		w.shift = bits.TrailingZeros(uint(ways))
	}
	w.Flush()
	return w
}

// Len returns the number of valid ways.
func (w *Ways) Len() int { return len(w.tags) - w.empty }

// Valid reports whether way holds a key.
func (w *Ways) Valid(way int) bool { return w.tags[way] != 0 }

// Key returns the key held by a valid way.
func (w *Ways) Key(way int) uint64 { return w.tags[way] &^ valid }

// setOf maps a way to its set. Touch runs on every TLB and cache hit,
// and a shift instead of a 64-bit divide is worth about 5% of a GUPS
// run's wall time.
func (w *Ways) setOf(way int) int {
	if w.shift >= 0 {
		return way >> w.shift
	}
	return way / w.n
}

// Find returns the way of set holding key, or -1. It does not change
// recency.
func (w *Ways) Find(set int, key uint64) int {
	base := set * w.n
	tag := key | valid
	for i, t := range w.tags[base : base+w.n] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// Touch makes a valid way the most recently used of its set.
func (w *Ways) Touch(way int) {
	s := w.setOf(way)
	h := int(w.head[s])
	if h == way {
		return
	}
	w.unlink(way)
	w.linkBefore(way, h)
	w.head[s] = int32(way)
}

// Fill installs key, which must be absent, in set as its most recently
// used way: the lowest-index empty way when there is one, else the
// least recently used way, whose key it returns as old. With zero ways
// per set it installs nothing and returns way -1.
func (w *Ways) Fill(set int, key uint64) (way int, old uint64, evicted bool) {
	if w.empty > 0 {
		base := set * w.n
		for i, t := range w.tags[base : base+w.n] {
			if t == 0 {
				way = base + i
				w.tags[way] = key | valid
				w.empty--
				if h := int(w.head[set]); h < 0 {
					w.prev[way], w.next[way] = int32(way), int32(way)
				} else {
					w.linkBefore(way, h)
				}
				w.head[set] = int32(way)
				return way, 0, false
			}
		}
	}
	h := w.head[set]
	if h < 0 {
		return -1, 0, false
	}
	way = int(w.prev[h])
	old = w.tags[way] &^ valid
	w.tags[way] = key | valid
	w.head[set] = int32(way)
	return way, old, true
}

// Clear empties a valid way.
func (w *Ways) Clear(way int) {
	s := w.setOf(way)
	if int(w.head[s]) == way {
		if nx := int(w.next[way]); nx == way {
			w.head[s] = -1
		} else {
			w.head[s] = int32(nx)
		}
	}
	w.unlink(way)
	w.tags[way] = 0
	w.empty++
}

// Flush empties every way.
func (w *Ways) Flush() {
	clear(w.tags)
	for i := range w.head {
		w.head[i] = -1
	}
	w.empty = len(w.tags)
}

func (w *Ways) unlink(way int) {
	p, nx := w.prev[way], w.next[way]
	w.next[p] = nx
	w.prev[nx] = p
}

// linkBefore inserts way into h's ring just before h, which is the
// MRU-most position once the caller makes way the head.
func (w *Ways) linkBefore(way, h int) {
	t := w.prev[h]
	w.next[t] = int32(way)
	w.prev[way] = t
	w.next[way] = int32(h)
	w.prev[h] = int32(way)
}
