package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the engine's original scheduling core — one boxed
// container/heap ordered by (at, seq) — as a test oracle, and checks
// that the calendar+heap queue dequeues randomized workloads in exactly
// the same order. The (at, seq) total order is the determinism contract
// every result in the repo depends on.

type oracleEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

// oracleEngine replicates the pre-calendar engine semantics.
type oracleEngine struct {
	now Time
	seq uint64
	h   oracleHeap
}

func (o *oracleEngine) At(t Time, fn func()) {
	if t < o.now {
		//gpureach:allow simerr -- test oracle mirrors the engine's own past-scheduling integrity panic
		panic("oracle: scheduling event in the past")
	}
	o.seq++
	heap.Push(&o.h, oracleEvent{at: t, seq: o.seq, fn: fn})
}

func (o *oracleEngine) Now() Time { return o.now }

func (o *oracleEngine) Run() {
	for o.h.Len() > 0 {
		ev := heap.Pop(&o.h).(oracleEvent)
		o.now = ev.at
		ev.fn()
	}
}

func (o *oracleEngine) RunUntil(limit Time) {
	for o.h.Len() > 0 && o.h[0].at <= limit {
		ev := heap.Pop(&o.h).(oracleEvent)
		o.now = ev.at
		ev.fn()
	}
	// Like Engine.RunUntil, the clock coasts to limit only on a fully
	// drained queue; with events still pending past limit it stays at
	// the last executed event.
	if o.h.Len() == 0 && o.now < limit {
		o.now = limit
	}
}

// scheduler is the least common API of Engine and oracleEngine.
type scheduler interface {
	At(t Time, fn func())
	Now() Time
}

type execRecord struct {
	id int
	at Time
}

// mixedOffset is the default child-delay distribution: same-cycle
// storms, short hops, cache-scale latencies, window-edge straddles and
// deep heap territory.
func mixedOffset(rng *rand.Rand) Time {
	switch rng.Intn(5) {
	case 0:
		return 0 // same-cycle storm from inside a handler
	case 1:
		return Time(rng.Intn(8))
	case 2:
		return Time(rng.Intn(400))
	case 3:
		return Time(calWindow - 2 + rng.Intn(5)) // straddle the window edge
	default:
		return Time(rng.Intn(3 * calWindow)) // deep heap territory
	}
}

// edgeOffset concentrates child delays exactly on the near/far
// boundary and its multiples, where an off-by-one in the bucket/heap
// split or the ring arithmetic would misorder events.
func edgeOffset(rng *rand.Rand) Time {
	edges := [...]Time{0, 1, CalendarWindow - 1, CalendarWindow, CalendarWindow + 1,
		2*CalendarWindow - 1, 4 * CalendarWindow, 4*CalendarWindow + 1}
	return edges[rng.Intn(len(edges))]
}

// dramOffset mimics DRAM bank and bus backlog under a GUPS-class miss
// stream: completions 16k–64k cycles out, on both sides of the window,
// mixed with the short hops of the cache and TLB paths.
func dramOffset(rng *rand.Rand) Time {
	if rng.Intn(3) == 0 {
		return Time(rng.Intn(64))
	}
	return Time(16384 + rng.Intn(65536-16384+1))
}

// runProgram executes a deterministic randomized event program on s:
// roots are scheduled at their absolute times, and every executed event
// schedules children at offsets drawn from offset with an rng derived
// purely from its id. The returned log of (id, Now()) pairs is the
// observable dequeue order.
func runProgram(s scheduler, roots []Time, seed int64, spawnLimit int, offset func(*rand.Rand) Time, drain func()) []execRecord {
	var log []execRecord
	next := len(roots)
	var handler func(id int) func()
	handler = func(id int) func() {
		return func() {
			log = append(log, execRecord{id: id, at: s.Now()})
			if id >= spawnLimit {
				return
			}
			rng := rand.New(rand.NewSource(seed ^ int64(id)*0x9E3779B9))
			for k := rng.Intn(4); k > 0; k-- {
				cid := next
				next++
				s.At(s.Now()+offset(rng), handler(cid))
			}
		}
	}
	for i, t := range roots {
		s.At(t, handler(i))
	}
	drain()
	return log
}

// makeRoots builds the initial event set: scattered singles plus a
// same-cycle storm at one hot cycle.
func makeRoots(rng *rand.Rand) []Time {
	var roots []Time
	for i := 0; i < 40; i++ {
		roots = append(roots, Time(rng.Intn(2000)))
	}
	storm := Time(rng.Intn(500))
	for i := 0; i < 64; i++ {
		roots = append(roots, storm)
	}
	return roots
}

func compareLogs(t *testing.T, seed int64, got, want []execRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: engine ran %d events, oracle %d", seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: divergence at event %d: engine ran id=%d at=%d, oracle id=%d at=%d",
				seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
}

// neverTrips arms every RunGuarded check with a limit no test program
// reaches, so the guarded loop (the one production runs use) drains the
// queue through its own peek-then-dispatch path.
var neverTrips = GuardConfig{MaxEvents: 1 << 40, MaxCycles: 1 << 50, NoProgressEvents: 1 << 30}

// drainMode is one way to run a queue to empty.
type drainMode struct {
	name  string
	drain func(t *testing.T, e *Engine) func()
}

// fullDrains lists the run loops that drain a whole queue: Run steps,
// and RunGuarded dispatches the time it has already peeked.
var fullDrains = []drainMode{
	{"Run", func(_ *testing.T, e *Engine) func() { return e.Run }},
	{"RunGuarded", func(t *testing.T, e *Engine) func() {
		return func() {
			if err := e.RunGuarded(neverTrips); err != nil {
				t.Fatalf("RunGuarded tripped: %v", err)
			}
		}
	}},
}

// TestQueueMatchesHeapOracle: full-drain runs under randomized seeded
// workloads must dequeue in exactly the oracle's (at, seq) order.
func TestQueueMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roots := makeRoots(rng)

		ora := &oracleEngine{}
		want := runProgram(ora, roots, seed, 4000, mixedOffset, ora.Run)

		for _, d := range fullDrains {
			t.Run(fmt.Sprintf("%s/seed=%d", d.name, seed), func(t *testing.T) {
				eng := NewEngine()
				got := runProgram(eng, roots, seed, 4000, mixedOffset, d.drain(t, eng))
				compareLogs(t, seed, got, want)
				if eng.Now() != ora.Now() {
					t.Fatalf("seed %d: final clock %d, oracle %d", seed, eng.Now(), ora.Now())
				}
				if eng.Pending() != 0 {
					t.Fatalf("seed %d: %d events left pending", seed, eng.Pending())
				}
			})
		}
	}
}

// TestQueueMatchesOracleAcrossRunUntil: draining in randomized RunUntil
// chunks (limits landing between, on, and past event times) must
// preserve the order and the clock at every boundary.
func TestQueueMatchesOracleAcrossRunUntil(t *testing.T) {
	for seed := int64(11); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roots := makeRoots(rng)
		// One shared list of limits, increasing, crossing the calendar
		// window several times.
		var limits []Time
		cur := Time(0)
		for i := 0; i < 50; i++ {
			cur += Time(rng.Intn(calWindow))
			limits = append(limits, cur)
		}

		eng := NewEngine()
		ora := &oracleEngine{}
		var clocks []Time
		got := runProgram(eng, roots, seed, 2000, mixedOffset, func() {
			for _, lim := range limits {
				eng.RunUntil(lim)
				clocks = append(clocks, eng.Now())
			}
			eng.Run() // drain the tail
		})
		var oraClocks []Time
		want := runProgram(ora, roots, seed, 2000, mixedOffset, func() {
			for _, lim := range limits {
				ora.RunUntil(lim)
				oraClocks = append(oraClocks, ora.Now())
			}
			ora.Run()
		})

		compareLogs(t, seed, got, want)
		for i := range clocks {
			if clocks[i] != oraClocks[i] {
				t.Fatalf("seed %d: after RunUntil(%d) clock=%d, oracle=%d",
					seed, limits[i], clocks[i], oraClocks[i])
			}
		}
	}
}

// TestQueueMatchesOracleAtWindowEdges: delays exactly at, just
// inside and just past the calendar window (and its multiples), and
// DRAM-backlog delays of 16k–64k cycles, must dequeue in the oracle's
// order, both on a full drain and across RunUntil chunks whose limits
// land near window multiples.
func TestQueueMatchesOracleAtWindowEdges(t *testing.T) {
	offsets := []struct {
		name   string
		offset func(*rand.Rand) Time
	}{{"edge", edgeOffset}, {"dram", dramOffset}}
	for _, o := range offsets {
		for seed := int64(21); seed <= 24; seed++ {
			rng := rand.New(rand.NewSource(seed))
			roots := makeRoots(rng)
			var limits []Time
			for i := Time(1); i <= 40; i++ {
				limits = append(limits, i*CalendarWindow/2+Time(rng.Intn(3))-1)
			}

			ora := &oracleEngine{}
			want := runProgram(ora, roots, seed, 3000, o.offset, ora.Run)
			for _, d := range fullDrains {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", o.name, d.name, seed), func(t *testing.T) {
					eng := NewEngine()
					got := runProgram(eng, roots, seed, 3000, o.offset, d.drain(t, eng))
					compareLogs(t, seed, got, want)
				})
			}

			eng := NewEngine()
			var clocks []Time
			got := runProgram(eng, roots, seed, 3000, o.offset, func() {
				for _, lim := range limits {
					eng.RunUntil(lim)
					clocks = append(clocks, eng.Now())
				}
				eng.Run()
			})
			ora = &oracleEngine{}
			var oraClocks []Time
			want = runProgram(ora, roots, seed, 3000, o.offset, func() {
				for _, lim := range limits {
					ora.RunUntil(lim)
					oraClocks = append(oraClocks, ora.Now())
				}
				ora.Run()
			})
			compareLogs(t, seed, got, want)
			for i := range clocks {
				if clocks[i] != oraClocks[i] {
					t.Fatalf("%s seed %d: after RunUntil(%d) clock=%d, oracle=%d",
						o.name, seed, limits[i], clocks[i], oraClocks[i])
				}
			}
		}
	}
}

// TestAtEventMatchesOracle drives the engine through the raw
// (Handler, ctx) form — the hot-path API — instead of the closure
// wrapper, against the same oracle.
func TestAtEventMatchesOracle(t *testing.T) {
	type node struct {
		id  int
		eng *Engine
		log *[]execRecord
	}
	const n = 300
	seed := int64(99)

	offsets := func(id int) []Time {
		rng := rand.New(rand.NewSource(seed ^ int64(id)))
		var offs []Time
		for k := rng.Intn(3); k > 0; k-- {
			offs = append(offs, Time(rng.Intn(2*calWindow)))
		}
		return offs
	}

	eng := NewEngine()
	var got []execRecord
	next := n
	var h Handler
	h = func(ctx any) {
		nd := ctx.(*node)
		*nd.log = append(*nd.log, execRecord{id: nd.id, at: nd.eng.Now()})
		if nd.id >= 2000 {
			return
		}
		for _, off := range offsets(nd.id) {
			child := &node{id: next, eng: nd.eng, log: nd.log}
			next++
			nd.eng.AtEvent(nd.eng.Now()+off, h, child)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var roots []Time
	for i := 0; i < n; i++ {
		roots = append(roots, Time(rng.Intn(1000)))
	}
	for i, at := range roots {
		eng.AtEvent(at, h, &node{id: i, eng: eng, log: &got})
	}
	eng.Run()

	ora := &oracleEngine{}
	var want []execRecord
	oNext := n
	var oh func(id int) func()
	oh = func(id int) func() {
		return func() {
			want = append(want, execRecord{id: id, at: ora.Now()})
			if id >= 2000 {
				return
			}
			for _, off := range offsets(id) {
				cid := oNext
				oNext++
				ora.At(ora.Now()+off, oh(cid))
			}
		}
	}
	for i, at := range roots {
		ora.At(at, oh(i))
	}
	ora.Run()

	compareLogs(t, seed, got, want)
}
