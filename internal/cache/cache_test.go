package cache

import (
	"testing"

	"gpureach/internal/sim"
	"gpureach/internal/vm"
)

// fakeMem is a fixed-latency backing store that counts traffic.
// Completions are scheduled handler/ctx pairs, so it adds no
// allocations of its own.
type fakeMem struct {
	eng     *sim.Engine
	latency sim.Time
	reads   int
	writes  int
}

func (m *fakeMem) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	if write {
		m.writes++
	} else {
		m.reads++
	}
	m.eng.AfterEvent(m.latency, h, ctx)
}

func newDUT(t *testing.T) (*sim.Engine, *Cache, *fakeMem) {
	t.Helper()
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 100}
	c := New(eng, Config{
		Name: "l1", SizeBytes: 1024, LineBytes: 64, Ways: 2,
		HitLatency: 4, PortInterval: 1,
	}, mem)
	return eng, c, mem
}

func TestMissThenHitLatency(t *testing.T) {
	eng, c, mem := newDUT(t)
	var missT, hitT sim.Time
	c.AccessEvent(0, false, func(any) { missT = eng.Now() }, nil)
	eng.Run()
	c.AccessEvent(32, false, func(any) { hitT = eng.Now() }, nil) // same 64B line
	start := missT
	eng.Run()
	if missT < 104 {
		t.Errorf("miss completed at %d, want ≥ 104 (hitLat+parent)", missT)
	}
	if hitT-start != 4 {
		t.Errorf("hit latency = %d, want 4", hitT-start)
	}
	if mem.reads != 1 {
		t.Errorf("parent reads = %d, want 1", mem.reads)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	eng, c, mem := newDUT(t)
	done := 0
	c.AccessEvent(0, false, func(any) { done++ }, nil)
	c.AccessEvent(8, false, func(any) { done++ }, nil)  // same line, in flight
	c.AccessEvent(48, false, func(any) { done++ }, nil) // same line
	eng.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if mem.reads != 1 {
		t.Errorf("parent reads = %d, want 1 (merged)", mem.reads)
	}
	if c.Stats().MergedMiss != 2 {
		t.Errorf("MergedMiss = %d, want 2", c.Stats().MergedMiss)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	eng, c, mem := newDUT(t)
	// 1024B/64B = 16 lines, 2 ways → 8 sets. Lines 0, 8, 16 (×64B) share set 0.
	c.AccessEvent(0, true, nop, nil) // dirty
	eng.Run()
	c.AccessEvent(8*64, false, nop, nil)
	eng.Run()
	c.AccessEvent(16*64, false, nop, nil) // evicts line 0 (LRU, dirty)
	eng.Run()
	if mem.writes != 1 {
		t.Errorf("parent writes = %d, want 1 writeback", mem.writes)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Stats().Writebacks)
	}
	if c.Contains(0) {
		t.Error("evicted line still resident")
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	eng, c, mem := newDUT(t)
	c.AccessEvent(0, false, nop, nil)
	eng.Run()
	c.AccessEvent(8*64, false, nop, nil)
	eng.Run()
	c.AccessEvent(16*64, false, nop, nil)
	eng.Run()
	if mem.writes != 0 {
		t.Errorf("clean eviction wrote back %d times", mem.writes)
	}
}

func TestLRUWithinSet(t *testing.T) {
	eng, c, _ := newDUT(t)
	c.AccessEvent(0, false, nop, nil)
	eng.Run()
	c.AccessEvent(8*64, false, nop, nil)
	eng.Run()
	// Touch line 0 again: line 8*64 is now LRU.
	c.AccessEvent(0, false, nop, nil)
	eng.Run()
	c.AccessEvent(16*64, false, nop, nil)
	eng.Run()
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(8 * 64) {
		t.Error("LRU line survived")
	}
}

func TestFlushWritesBackDirty(t *testing.T) {
	eng, c, mem := newDUT(t)
	c.AccessEvent(0, true, nop, nil)
	c.AccessEvent(64, false, nop, nil)
	eng.Run()
	c.Flush()
	eng.Run()
	if mem.writes != 1 {
		t.Errorf("flush wrote back %d lines, want 1", mem.writes)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Error("lines resident after flush")
	}
}

func TestPortSerializesAccesses(t *testing.T) {
	eng, c, _ := newDUT(t)
	// Warm two lines.
	c.AccessEvent(0, false, nop, nil)
	c.AccessEvent(64, false, nop, nil)
	eng.Run()
	var t1, t2 sim.Time
	c.AccessEvent(0, false, func(any) { t1 = eng.Now() }, nil)
	c.AccessEvent(64, false, func(any) { t2 = eng.Now() }, nil)
	eng.Run()
	if t2 != t1+1 {
		t.Errorf("port interval not respected: %d then %d", t1, t2)
	}
}

func TestHierarchyComposition(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 200}
	l2 := New(eng, Config{Name: "l2", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 20, PortInterval: 1}, mem)
	l1 := New(eng, Config{Name: "l1", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 4, PortInterval: 1}, l2)

	var coldT sim.Time
	l1.AccessEvent(0, false, func(any) { coldT = eng.Now() }, nil)
	eng.Run()
	if coldT < 224 {
		t.Errorf("cold access = %d, want ≥ 4+20+200", coldT)
	}
	// Evict from L1 (512B/64 = 8 lines, 2 ways → 4 sets; 0, 256, 512 share set 0).
	l1.AccessEvent(256, false, nop, nil)
	eng.Run()
	l1.AccessEvent(512, false, nop, nil)
	eng.Run()
	// Line 0 gone from L1 but still in L2: medium latency.
	start := eng.Now()
	var warmT sim.Time
	l1.AccessEvent(0, false, func(any) { warmT = eng.Now() }, nil)
	eng.Run()
	lat := warmT - start
	if lat < 24 || lat >= 200 {
		t.Errorf("L2-hit latency = %d, want [24,200)", lat)
	}
	if mem.reads != 3 {
		t.Errorf("memory reads = %d, want 3", mem.reads)
	}
}

func TestBadConfigPanics(t *testing.T) {
	eng := sim.NewEngine()
	cases := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Ways: 2},
		{Name: "b", SizeBytes: 1024, LineBytes: 60, Ways: 2},
		{Name: "c", SizeBytes: 192, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(eng, cfg, &fakeMem{eng: eng})
		}()
	}
}

func TestLineBytes(t *testing.T) {
	_, c, _ := newDUT(t)
	if c.LineBytes() != 64 {
		t.Errorf("LineBytes = %d", c.LineBytes())
	}
}

// TestHashedSetsRetainLines: regardless of the XOR-folded set mapping,
// an accessed line is resident afterwards and retrievable — placement
// never loses data.
func TestHashedSetsRetainLines(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 10}
	c := New(eng, Config{Name: "h", SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, HitLatency: 1, PortInterval: 1}, mem)
	// Strided addresses that would all collide under modulo indexing.
	for i := 0; i < 64; i++ {
		addr := vm.PA(i * 4096 * 8)
		c.AccessEvent(addr, false, nop, nil)
		eng.Run()
		if !c.Contains(addr) {
			t.Fatalf("line %d lost immediately after fill", i)
		}
	}
	// 64 lines in a 1024-line cache: with hashed placement the page
	// stride must not collapse onto one set (8 ways) and evict.
	resident := 0
	for i := 0; i < 64; i++ {
		if c.Contains(vm.PA(i * 4096 * 8)) {
			resident++
		}
	}
	if resident < 48 {
		t.Errorf("only %d/64 strided lines resident — set hashing ineffective", resident)
	}
}

func countDone(ctx any) { *ctx.(*int)++ }

// TestAccessEventZeroAllocs guards AccessEvent's steady state: once the
// engine, MSHR table and miss pool have grown, a hit and a miss that
// fills over a dirty LRU victim (with its writeback) allocate nothing.
func TestAccessEventZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{
		Name: "l2", SizeBytes: 4096, LineBytes: 64, Ways: 4,
		HitLatency: 4, PortInterval: 1,
	}, &fakeMem{eng: eng, latency: 100})
	done := 0
	ctx := any(&done)
	const lines = 128 // twice the capacity: every line misses and evicts
	next := 0
	miss := func() {
		c.AccessEvent(vm.PA(next*64), true, countDone, ctx)
		next = (next + 1) % lines
		eng.Run()
	}
	hit := func() {
		c.AccessEvent(0, false, countDone, ctx)
		eng.Run()
	}
	for i := 0; i < 2*lines; i++ {
		miss()
	}
	before := c.Stats()
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Fatalf("warm miss-fill allocated %.1f times; the contract is 0", allocs)
	}
	s := c.Stats()
	if s.Misses == before.Misses || s.Writebacks == before.Writebacks {
		t.Fatalf("miss loop exercised no misses or writebacks: %+v", s)
	}
	c.AccessEvent(0, false, countDone, ctx)
	eng.Run()
	before = c.Stats()
	if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
		t.Fatalf("warm hit allocated %.1f times; the contract is 0", allocs)
	}
	if s := c.Stats(); s.Hits-before.Hits != 101 {
		t.Fatalf("hit loop made %d hits, want 101", s.Hits-before.Hits)
	}
}
