package sim

import (
	"math/rand"
	"testing"
)

// checkTable asserts that tab holds exactly the oracle's contents.
// Every oracle key must be found with its value, and a batch of keys
// absent from the oracle must not be found.
func checkTable(t *testing.T, step int, tab *Table[uint64], oracle map[uint64]uint64, absent []uint64) {
	t.Helper()
	if tab.Len() != len(oracle) {
		t.Fatalf("step %d: Len = %d, oracle holds %d", step, tab.Len(), len(oracle))
	}
	for k, want := range oracle {
		v := tab.Find(k)
		if v == nil || *v != want {
			t.Fatalf("step %d: Find(%#x) = %v, want %d", step, k, v, want)
		}
	}
	for _, k := range absent {
		if _, in := oracle[k]; !in && tab.Find(k) != nil {
			t.Fatalf("step %d: Find(%#x) found a key that was never inserted or was deleted", step, k)
		}
	}
}

// collidingKeys returns n distinct keys whose home slot in a table of
// the given size is home, so they form a single probe chain.
func collidingKeys(rng *rand.Rand, size, n, home int) []uint64 {
	probe := Table[uint64]{}
	for len(probe.slots) < size {
		probe.grow()
	}
	var keys []uint64
	seen := map[uint64]bool{}
	for len(keys) < n {
		k := rng.Uint64()
		if probe.home(k) == home && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableMatchesMapOracle drives random Insert/Find/Delete sequences
// against a Go map. The key pools mix uniformly random keys, the small
// sequential keys the simulator really uses (line addresses, packed
// page numbers), and chains of keys forced onto one home slot, whose
// deletion from the middle exercises the backward shift. Each seed
// grows the table through several doublings and shrinks it back.
func TestTableMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool []uint64
		for i := 0; i < 300; i++ {
			pool = append(pool, rng.Uint64())
		}
		for i := uint64(0); i < 300; i++ {
			pool = append(pool, i, i<<4|uint64(seed&15))
		}
		// Collision chains sized for the table sizes it passes through.
		for _, size := range []int{8, 64, 512} {
			pool = append(pool, collidingKeys(rng, size, 12, rng.Intn(size))...)
		}

		var tab Table[uint64]
		oracle := map[uint64]uint64{}
		peak := 0
		for step := 0; step < 20000; step++ {
			k := pool[rng.Intn(len(pool))]
			// Bias towards inserts for the first half (growth), towards
			// deletes for the second (drain and chain repair).
			insertBias := 6
			if step >= 10000 {
				insertBias = 3
			}
			switch op := rng.Intn(10); {
			case op < insertBias:
				v, fresh := tab.Insert(k)
				_, had := oracle[k]
				if fresh == had {
					t.Fatalf("seed %d step %d: Insert(%#x) fresh=%v, oracle had=%v", seed, step, k, fresh, had)
				}
				if !fresh && *v != oracle[k] {
					t.Fatalf("seed %d step %d: Insert(%#x) existing value %d, want %d", seed, step, k, *v, oracle[k])
				}
				*v = uint64(step)
				oracle[k] = uint64(step)
			case op < 9:
				v, ok := tab.Delete(k)
				want, had := oracle[k]
				if ok != had || (ok && v != want) {
					t.Fatalf("seed %d step %d: Delete(%#x) = (%d, %v), oracle (%d, %v)", seed, step, k, v, ok, want, had)
				}
				delete(oracle, k)
			default:
				v := tab.Find(k)
				want, had := oracle[k]
				if (v != nil) != had || (v != nil && *v != want) {
					t.Fatalf("seed %d step %d: Find(%#x) disagrees with the oracle (%d, %v)", seed, step, k, want, had)
				}
			}
			if len(oracle) > peak {
				peak = len(oracle)
			}
			if step%500 == 0 {
				checkTable(t, step, &tab, oracle, pool[:64])
			}
		}
		checkTable(t, -1, &tab, oracle, pool)
		if len(tab.slots) < 4*tableMinSlots {
			t.Fatalf("seed %d: table only reached %d slots (peak %d keys); growth not exercised", seed, len(tab.slots), peak)
		}
	}
}

// TestTableDeleteMidChain pins the backward shift directly: a chain of
// colliding keys survives deleting any one member, with the chain
// starting mid-table, at slot 0, and near the end so that it wraps
// around past the last slot.
func TestTableDeleteMidChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{8, 16} {
		for _, home := range []int{0, size / 2, size - 2} {
			// size/2 keys: the most the table holds without growing.
			keys := collidingKeys(rng, size, size/2, home)
			testDeleteFromChain(t, size, keys)
		}
	}
}

func testDeleteFromChain(t *testing.T, size int, keys []uint64) {
	t.Helper()
	for del := range keys {
		var tab Table[uint64]
		for len(tab.slots) < size {
			tab.grow()
		}
		oracle := map[uint64]uint64{}
		for i, k := range keys {
			v, _ := tab.Insert(k)
			*v = uint64(i)
			oracle[k] = uint64(i)
		}
		if len(tab.slots) != size {
			t.Fatalf("size %d: table grew to %d; chain no longer collides", size, len(tab.slots))
		}
		if _, ok := tab.Delete(keys[del]); !ok {
			t.Fatalf("size %d: Delete of chain member %d failed", size, del)
		}
		delete(oracle, keys[del])
		checkTable(t, del, &tab, oracle, keys)
	}
}

// TestTableZeroAllocsWhenWarm: once grown, inserting and deleting the
// same working set never allocates — the MSHR-style steady state.
func TestTableZeroAllocsWhenWarm(t *testing.T) {
	var tab Table[*int]
	x := new(int)
	for k := uint64(0); k < 256; k++ {
		v, _ := tab.Insert(k)
		*v = x
	}
	for k := uint64(0); k < 256; k++ {
		tab.Delete(k)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 256; k++ {
			v, _ := tab.Insert(k * 64)
			*v = x
		}
		for k := uint64(0); k < 256; k++ {
			tab.Delete(k * 64)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm table allocated %.1f times per cycle; the contract is 0", allocs)
	}
}
