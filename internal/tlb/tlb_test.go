package tlb

import (
	"testing"
	"testing/quick"

	"gpureach/internal/vm"
)

var spaceA = vm.SpaceID{VMID: 0, VRF: 0}
var spaceB = vm.SpaceID{VMID: 1, VRF: 0}

func entry(space vm.SpaceID, vpn vm.VPN) Entry {
	return Entry{Space: space, VPN: vpn, PFN: vm.PFN(vpn * 7)}
}

func TestKeyRoundTrip(t *testing.T) {
	k := MakeKey(spaceB, 0xABCDE)
	if k.VPN() != 0xABCDE {
		t.Errorf("VPN round trip = %#x", k.VPN())
	}
	if MakeKey(spaceA, 0xABCDE) == k {
		t.Error("different spaces produced identical keys")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	tl := New("l1", 32, 32)
	key := MakeKey(spaceA, 5)
	if _, ok := tl.Lookup(key); ok {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(entry(spaceA, 5))
	e, ok := tl.Lookup(key)
	if !ok || e.PFN != 35 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New("fa", 4, 4)
	for i := vm.VPN(0); i < 4; i++ {
		tl.Insert(entry(spaceA, i))
	}
	// Touch 0 to make it MRU; 1 becomes LRU.
	tl.Lookup(MakeKey(spaceA, 0))
	victim, evicted := tl.Insert(entry(spaceA, 99))
	if !evicted || victim.VPN != 1 {
		t.Errorf("victim = %+v evicted=%v, want VPN 1", victim, evicted)
	}
	if _, ok := tl.Probe(MakeKey(spaceA, 0)); !ok {
		t.Error("MRU entry was evicted")
	}
}

func TestSetIndexing(t *testing.T) {
	tl := New("l2", 32, 4) // 8 sets
	// VPNs 0 and 8 map to set 0; fill set 0's four ways.
	for _, vpn := range []vm.VPN{0, 8, 16, 24} {
		if _, ev := tl.Insert(entry(spaceA, vpn)); ev {
			t.Fatalf("unexpected eviction inserting %d", vpn)
		}
	}
	// VPN 1 goes to set 1: no eviction.
	if _, ev := tl.Insert(entry(spaceA, 1)); ev {
		t.Error("cross-set insert evicted")
	}
	// VPN 32 also set 0: evicts.
	if _, ev := tl.Insert(entry(spaceA, 32)); !ev {
		t.Error("conflicting insert did not evict")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	tl := New("fa", 2, 2)
	tl.Insert(entry(spaceA, 1))
	tl.Insert(entry(spaceA, 2))
	tl.Insert(entry(spaceA, 1)) // refresh: 2 becomes LRU
	victim, evicted := tl.Insert(entry(spaceA, 3))
	if !evicted || victim.VPN != 2 {
		t.Errorf("victim = %+v, want VPN 2", victim)
	}
	if tl.Occupied() != 2 {
		t.Errorf("Occupied = %d", tl.Occupied())
	}
}

func TestSpaceIsolation(t *testing.T) {
	tl := New("fa", 8, 8)
	tl.Insert(entry(spaceA, 5))
	if _, ok := tl.Lookup(MakeKey(spaceB, 5)); ok {
		t.Error("entry leaked across address spaces")
	}
}

func TestInvalidate(t *testing.T) {
	tl := New("fa", 8, 8)
	tl.Insert(entry(spaceA, 5))
	if !tl.Invalidate(MakeKey(spaceA, 5)) {
		t.Fatal("Invalidate missed present entry")
	}
	if tl.Invalidate(MakeKey(spaceA, 5)) {
		t.Error("double invalidate returned true")
	}
	if _, ok := tl.Probe(MakeKey(spaceA, 5)); ok {
		t.Error("entry present after shootdown")
	}
	if tl.Stats().Shootdowns != 1 {
		t.Errorf("Shootdowns = %d", tl.Stats().Shootdowns)
	}
}

func TestFlush(t *testing.T) {
	tl := New("fa", 8, 8)
	for i := vm.VPN(0); i < 8; i++ {
		tl.Insert(entry(spaceA, i))
	}
	tl.Flush()
	if tl.Occupied() != 0 {
		t.Errorf("Occupied after flush = %d", tl.Occupied())
	}
}

func TestForEach(t *testing.T) {
	tl := New("fa", 8, 8)
	tl.Insert(entry(spaceA, 1))
	tl.Insert(entry(spaceA, 2))
	seen := map[vm.VPN]bool{}
	tl.ForEach(func(e Entry) { seen[e.VPN] = true })
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Errorf("ForEach saw %v", seen)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, c := range []struct{ e, w int }{{0, 1}, {8, 0}, {10, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v did not panic", c)
				}
			}()
			New("bad", c.e, c.w)
		}()
	}
}

func TestHitRate(t *testing.T) {
	tl := New("fa", 4, 4)
	tl.Insert(entry(spaceA, 1))
	tl.Lookup(MakeKey(spaceA, 1))
	tl.Lookup(MakeKey(spaceA, 2))
	tl.Lookup(MakeKey(spaceA, 1))
	if hr := tl.Stats().HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("idle hit rate should be 0")
	}
}

// Property: after any sequence of inserts, a Lookup hit makes that entry
// survive the next single insert (MRU protection, DESIGN.md §5).
func TestLRUMRUProperty(t *testing.T) {
	f := func(vpns []uint16, probe uint16) bool {
		tl := New("fa", 8, 8)
		for _, v := range vpns {
			tl.Insert(entry(spaceA, vm.VPN(v)))
		}
		tl.Insert(entry(spaceA, vm.VPN(probe)))
		tl.Lookup(MakeKey(spaceA, vm.VPN(probe))) // MRU now
		tl.Insert(entry(spaceA, vm.VPN(probe)+100000))
		_, ok := tl.Probe(MakeKey(spaceA, vm.VPN(probe)))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy never exceeds capacity and evictions only happen
// when the target set is full.
func TestCapacityProperty(t *testing.T) {
	f := func(vpns []uint16) bool {
		tl := New("sa", 16, 4)
		for _, v := range vpns {
			tl.Insert(entry(spaceA, vm.VPN(v)))
			if tl.Occupied() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoalescerMerges(t *testing.T) {
	c := NewCoalescer()
	key := MakeKey(spaceA, 9)
	var results []vm.PFN
	first := c.Join(key, func(e Entry) { results = append(results, e.PFN) })
	if !first {
		t.Fatal("first join not first")
	}
	if c.Join(key, func(e Entry) { results = append(results, e.PFN) }) {
		t.Fatal("second join claimed first")
	}
	if c.Inflight() != 1 {
		t.Errorf("Inflight = %d", c.Inflight())
	}
	c.Complete(key, entry(spaceA, 9))
	if len(results) != 2 || results[0] != 63 || results[1] != 63 {
		t.Errorf("results = %v", results)
	}
	if c.Inflight() != 0 {
		t.Errorf("Inflight after complete = %d", c.Inflight())
	}
	if c.Merged != 1 || c.Started != 1 {
		t.Errorf("Merged=%d Started=%d", c.Merged, c.Started)
	}
}

func TestCoalescerIndependentKeys(t *testing.T) {
	c := NewCoalescer()
	k1, k2 := MakeKey(spaceA, 1), MakeKey(spaceA, 2)
	done1, done2 := false, false
	if !c.Join(k1, func(Entry) { done1 = true }) {
		t.Fatal("k1 not first")
	}
	if !c.Join(k2, func(Entry) { done2 = true }) {
		t.Fatal("k2 not first")
	}
	c.Complete(k1, entry(spaceA, 1))
	if !done1 || done2 {
		t.Errorf("done1=%v done2=%v", done1, done2)
	}
}

func TestCoalescerCompleteEmptyIsNoop(t *testing.T) {
	c := NewCoalescer()
	c.Complete(MakeKey(spaceA, 1), Entry{}) // must not panic
}

func TestCoalescerRejoinAfterComplete(t *testing.T) {
	c := NewCoalescer()
	key := MakeKey(spaceA, 1)
	c.Join(key, func(Entry) {})
	c.Complete(key, Entry{})
	if !c.Join(key, func(Entry) {}) {
		t.Error("join after complete should be first again")
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	tl := New("fa", 2, 2)
	tl.Insert(entry(spaceA, 1))
	tl.Insert(entry(spaceA, 2)) // 1 is LRU
	tl.Probe(MakeKey(spaceA, 1))
	victim, evicted := tl.Insert(entry(spaceA, 3))
	if !evicted || victim.VPN != 1 {
		t.Errorf("Probe changed LRU order: victim %+v", victim)
	}
	if tl.Stats().Hits != 0 {
		t.Error("Probe counted as a hit")
	}
}

// TestCoalescerJoinCompleteZeroAllocs guards the coalescer's steady
// state: once its in-flight table and waiter free lists have grown, a
// cycle of first joins, merged joins and completions allocates nothing.
func TestCoalescerJoinCompleteZeroAllocs(t *testing.T) {
	c := NewCoalescer()
	done := 0
	h := EntryHandler(func(ctx any, e Entry) { done++ })
	const keys, perKey = 64, 4
	cycle := func() {
		for i := 0; i < perKey; i++ {
			for k := vm.VPN(0); k < keys; k++ {
				c.JoinEvent(MakeKey(spaceA, k), h, nil)
			}
		}
		for k := vm.VPN(0); k < keys; k++ {
			c.Complete(MakeKey(spaceA, k), entry(spaceA, k))
		}
	}
	cycle() // warm: grow the table and the waiter free lists
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("warm join/complete cycle allocated %.1f times; the contract is 0", allocs)
	}
	if c.Inflight() != 0 || done != keys*perKey*(100+2) {
		t.Fatalf("inflight=%d done=%d after the cycles", c.Inflight(), done)
	}
}

// TestInsertLookupZeroAllocs guards the TLB's hot paths: lookups that
// hit and miss, inserts that fill, refresh and evict allocate nothing.
func TestInsertLookupZeroAllocs(t *testing.T) {
	tl := New("l2", 512, 16)
	const keys = 1024 // twice the capacity: every round evicts
	round := func() {
		for k := vm.VPN(0); k < keys; k++ {
			if _, ok := tl.Lookup(MakeKey(spaceA, k)); !ok {
				tl.Insert(entry(spaceA, k))
			}
			tl.Insert(entry(spaceA, k))   // refresh
			tl.Lookup(MakeKey(spaceA, k)) // hit
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("warm Lookup/Insert round allocated %.1f times; the contract is 0", allocs)
	}
	if s := tl.Stats(); s.Evictions == 0 || s.Hits == 0 {
		t.Fatalf("round exercised no evictions or hits: %+v", s)
	}
}
