package assoc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stampRef is the replacement algorithm Ways replaced, kept as the
// oracle: a per-way LRU stamp from a strictly increasing clock (0 marks
// an empty way), a fill into the lowest-index empty way, and otherwise
// an eviction of the minimum stamp in the set.
type stampRef struct {
	keys   []uint64
	stamps []uint64
	n      int
	clock  uint64
}

func newStampRef(sets, ways int) *stampRef {
	return &stampRef{keys: make([]uint64, sets*ways), stamps: make([]uint64, sets*ways), n: ways}
}

func (r *stampRef) find(set int, key uint64) int {
	for i := set * r.n; i < (set+1)*r.n; i++ {
		if r.stamps[i] != 0 && r.keys[i] == key {
			return i
		}
	}
	return -1
}

func (r *stampRef) touch(way int) {
	r.clock++
	r.stamps[way] = r.clock
}

func (r *stampRef) fill(set int, key uint64) (int, uint64, bool) {
	if r.n == 0 {
		return -1, 0, false
	}
	r.clock++
	free, lru := -1, set*r.n
	for i := set * r.n; i < (set+1)*r.n; i++ {
		if r.stamps[i] == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if r.stamps[i] < r.stamps[lru] {
			lru = i
		}
	}
	if free >= 0 {
		r.keys[free], r.stamps[free] = key, r.clock
		return free, 0, false
	}
	old := r.keys[lru]
	r.keys[lru], r.stamps[lru] = key, r.clock
	return lru, old, true
}

func (r *stampRef) clear(way int) { r.stamps[way] = 0 }

func (r *stampRef) flush() { clear(r.stamps) }

// recency lists set's valid ways from most to least recently used.
func (r *stampRef) recency(set int) []int {
	var ws []int
	for i := set * r.n; i < (set+1)*r.n; i++ {
		if r.stamps[i] != 0 {
			ws = append(ws, i)
		}
	}
	slices.SortFunc(ws, func(a, b int) int {
		if r.stamps[a] > r.stamps[b] {
			return -1
		}
		return 1
	})
	return ws
}

// recency walks set's ring from the head: MRU first.
func (w *Ways) recency(set int) []int {
	var ws []int
	h := int(w.head[set])
	if h < 0 {
		return ws
	}
	for i := h; ; {
		ws = append(ws, i)
		if i = int(w.next[i]); i == h {
			return ws
		}
		if len(ws) > w.n {
			panic("ring longer than its set")
		}
	}
}

type kv struct {
	way int
	key uint64
}

// contents lists the valid ways and keys in index order — the order
// TLB.ForEach reports entries in.
func (w *Ways) contents() []kv {
	var out []kv
	for i := range w.tags {
		if w.Valid(i) {
			out = append(out, kv{i, w.Key(i)})
		}
	}
	return out
}

func (r *stampRef) contents() []kv {
	var out []kv
	for i, s := range r.stamps {
		if s != 0 {
			out = append(out, kv{i, r.keys[i]})
		}
	}
	return out
}

func TestWaysMatchStampOracle(t *testing.T) {
	geoms := []struct{ sets, ways int }{
		{1, 1}, {8, 4}, {4, 16}, {1, 32}, {1, 0}, {3, 3},
	}
	for _, g := range geoms {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				checkAgainstOracle(t, g.sets, g.ways, seed, 4000)
			}
		})
	}
}

func checkAgainstOracle(t *testing.T, sets, ways int, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, ref := New(sets, ways), newStampRef(sets, ways)
	// A key universe of about twice the capacity, including key 0 and
	// the largest legal key, keeps a mix of hits, misses and evictions.
	universe := 2*sets*ways + 2
	keyOf := func() uint64 {
		k := uint64(rng.Intn(universe))
		if k == 1 {
			k = valid - 1
		}
		return k
	}
	for op := 0; op < ops; op++ {
		set := rng.Intn(sets)
		key := keyOf()
		var what string
		switch p := rng.Intn(100); {
		case p < 40: // lookup: find, touch on hit
			what = "lookup"
			got, want := w.Find(set, key), ref.find(set, key)
			if got != want {
				t.Fatalf("seed %d op %d: Find(%d, %d) = %d, oracle %d", seed, op, set, key, got, want)
			}
			if got >= 0 {
				w.Touch(got)
				ref.touch(want)
			}
		case p < 50: // probe without touching
			what = "find"
			if got, want := w.Find(set, key), ref.find(set, key); got != want {
				t.Fatalf("seed %d op %d: Find(%d, %d) = %d, oracle %d", seed, op, set, key, got, want)
			}
		case p < 88: // insert: fill when absent
			what = "fill"
			if ref.find(set, key) >= 0 {
				continue
			}
			way, old, ev := w.Fill(set, key)
			rway, rold, rev := ref.fill(set, key)
			if way != rway || old != rold || ev != rev {
				t.Fatalf("seed %d op %d: Fill(%d, %d) = (%d, %d, %v), oracle (%d, %d, %v)",
					seed, op, set, key, way, old, ev, rway, rold, rev)
			}
		case p < 99: // invalidate
			what = "clear"
			if way := ref.find(set, key); way >= 0 {
				w.Clear(way)
				ref.clear(way)
			}
		default:
			what = "flush"
			w.Flush()
			ref.flush()
		}
		if got, want := w.contents(), ref.contents(); !slices.Equal(got, want) {
			t.Fatalf("seed %d op %d (%s): contents %v, oracle %v", seed, op, what, got, want)
		}
		if got, want := w.Len(), len(ref.contents()); got != want {
			t.Fatalf("seed %d op %d (%s): Len %d, oracle %d", seed, op, what, got, want)
		}
		if got, want := w.recency(set), ref.recency(set); !slices.Equal(got, want) {
			t.Fatalf("seed %d op %d (%s): set %d recency %v, oracle %v", seed, op, what, set, got, want)
		}
	}
}

func TestZeroWaysAlwaysMisses(t *testing.T) {
	w := New(1, 0)
	for k := uint64(0); k < 8; k++ {
		if way, _, ev := w.Fill(0, k); way != -1 || ev {
			t.Fatalf("Fill into a zero-way structure = (%d, %v), want (-1, false)", way, ev)
		}
		if w.Find(0, k) != -1 {
			t.Fatalf("Find(%d) hit in a zero-way structure", k)
		}
	}
	if w.Len() != 0 || len(w.tags) != 0 {
		t.Fatalf("Len %d, %d ways, want 0 0", w.Len(), len(w.tags))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 4}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", g[0], g[1])
				}
			}()
			New(g[0], g[1])
		}()
	}
}

// BenchmarkWays times the kernel on the two shapes that dominate a run:
// the 32-way fully-associative L1 TLB under a stream of misses (every
// access fills and evicts) and a 16-way set-associative structure under
// a hit/miss mix.
func BenchmarkWays(b *testing.B) {
	b.Run("fa32-fill-evict", func(b *testing.B) {
		w := New(1, 32)
		for i := 0; i < b.N; i++ {
			key := uint64(i)
			if way := w.Find(0, key); way >= 0 {
				w.Touch(way)
				continue
			}
			w.Fill(0, key)
		}
	})
	b.Run("16way-mix", func(b *testing.B) {
		const sets = 32
		w := New(sets, 16)
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = uint64(rng.Intn(sets * 16 * 2)) // about half the accesses hit
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := keys[i&(len(keys)-1)]
			set := int(key % sets)
			if way := w.Find(set, key); way >= 0 {
				w.Touch(way)
				continue
			}
			w.Fill(set, key)
		}
	})
}
