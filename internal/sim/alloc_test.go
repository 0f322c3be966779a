package sim

import (
	"runtime"
	"testing"
	"time"
)

// warmEngine grows the engine's only growable storage so steady-state
// measurements see no growth allocations: the calendar slab, which
// grows only when the number of pending calendar events reaches a new
// peak (the bucket headers are a fixed array, so no per-bucket warming
// is needed), and the overflow heap's backing array.
func warmEngine(e *Engine, h Handler) {
	const near, far = 4096, 1024
	for i := 0; i < near; i++ {
		e.AtEvent(e.Now()+Time(i%64), h, nil)
	}
	for i := 0; i < far; i++ {
		e.AfterEvent(Time(calWindow+i), h, nil)
	}
	e.Run()
}

// TestEngineSteadyStateZeroAllocs guards the engine's core contract:
// scheduling and running events through AtEvent/AfterEvent with
// pointer-shaped contexts allocates nothing once warm. Any regression
// here multiplies by the millions of events per run.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	nop := Handler(func(any) {})
	warmEngine(e, nop)

	ctx := &struct{ n int }{}
	h := Handler(func(c any) { c.(*struct{ n int }).n++ })

	allocs := testing.AllocsPerRun(100, func() {
		// Near-future (bucket) events, including same-cycle bursts...
		for i := 0; i < 64; i++ {
			e.AtEvent(e.Now()+Time(i%8), h, ctx)
		}
		// ...and far-future (heap) events.
		for i := 0; i < 16; i++ {
			e.AfterEvent(Time(calWindow+i*37), h, ctx)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("engine steady state allocated %.1f times per run; the contract is 0", allocs)
	}
}

// TestPoolReuseZeroAllocs guards the free-list pool: a warm Get/Put
// cycle must not allocate.
func TestPoolReuseZeroAllocs(t *testing.T) {
	type req struct{ a, b uint64 }
	var p Pool[req]
	// Warm: one object in the free list.
	p.Put(p.Get())
	allocs := testing.AllocsPerRun(100, func() {
		r := p.Get()
		r.a, r.b = 1, 2
		p.Put(r)
	})
	if allocs != 0 {
		t.Fatalf("warm pool allocated %.1f times per Get/Put; the contract is 0", allocs)
	}
}

// TestUnmeasuredPortDoesNotAllocate: a port nobody called MeasureIdle
// on records no idle gaps, so its grants never touch the allocator. A
// recording port fills a reservoir of gapsCap samples (256 KiB) within
// these grants and leaves the garbage of every doubling behind, which
// a warm-port AllocsPerRun check would miss once the reservoir is full.
func TestUnmeasuredPortDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 40_000; i++ {
		p.Acquire()
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<10 {
		t.Fatalf("40,000 grants on an unmeasured port allocated %d bytes; want < 1 KiB", d)
	}
	if p.IdleGaps() != nil {
		t.Fatal("unmeasured port has an idle-gap distribution")
	}
}

// BenchmarkEngineAtEvent: schedule+run near-future events (the bucket
// fast path) — the shape of almost all simulator traffic.
func BenchmarkEngineAtEvent(b *testing.B) {
	e := NewEngine()
	h := Handler(func(any) {})
	warmEngine(e, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtEvent(e.Now()+Time(i%64+1), h, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineSameCycleStorm: many events on one cycle (coalescer
// bursts, wave storms) stress bucket append/drain order bookkeeping.
func BenchmarkEngineSameCycleStorm(b *testing.B) {
	e := NewEngine()
	h := Handler(func(any) {})
	warmEngine(e, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		at := e.Now() + 1
		for j := 0; j < 256 && i+j < b.N; j++ {
			e.AtEvent(at, h, nil)
		}
		e.Run()
	}
}

// BenchmarkEngineFarFuture: events beyond the calendar window exercise
// the overflow heap. In a run that is the straggler traffic: DRAM
// backlog deeper than CalendarWindow cycles, kernel launches and
// oversubscribed port grants. DRAM completions within the window stay
// in the calendar.
func BenchmarkEngineFarFuture(b *testing.B) {
	e := NewEngine()
	h := Handler(func(any) {})
	warmEngine(e, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		for j := 0; j < 64 && i+j < b.N; j++ {
			e.AfterEvent(Time(calWindow+(j*977)%(4*calWindow)), h, nil)
		}
		e.Run()
	}
}

// BenchmarkEngineRunGuarded: a sparse program under the watchdog loop
// every production run uses. Four self-rearming chains fire every few
// hundred cycles and one hop in eight goes past the calendar window, so
// nearly every step drains a cycle and scans for the next event time.
func BenchmarkEngineRunGuarded(b *testing.B) {
	e := NewEngine()
	left := b.N
	var tick Handler
	tick = func(any) {
		left--
		if left <= 0 {
			return
		}
		d := Time(200 + left%7*50)
		if left%8 == 0 {
			d += calWindow
		}
		e.AfterEvent(d, tick, nil)
	}
	warmEngine(e, func(any) {})
	for i := 0; i < 4; i++ {
		e.AfterEvent(Time(1+i*97), tick, nil)
	}
	start := e.EventsRun()
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	if err := e.RunGuarded(GuardConfig{NoProgressEvents: 5_000_000}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/float64(e.EventsRun()-start), "ns/event")
}
