package sim

import (
	"errors"
	"strings"
	"testing"
)

// Regression: the doc contract says the clock ends at limit when the
// queue drains before the limit; it used to stay at the last event.
func TestRunUntilAdvancesClockWhenDrained(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %d after draining early, want 100", e.Now())
	}
	// Idempotent: a second call with the same limit changes nothing.
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %d after repeat RunUntil, want 100", e.Now())
	}
	// An empty queue still advances the clock.
	e.RunUntil(250)
	if e.Now() != 250 {
		t.Errorf("Now() = %d on empty queue, want 250", e.Now())
	}
}

func TestRunUntilLeavesClockAtLastEventWhenEventsRemain(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.At(200, func() {})
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Errorf("Now() = %d with events still queued, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

func TestPastSchedulePanicIsInformative(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("scheduling in the past did not panic")
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T, want string", r)
			}
			for _, want := range []string{"at=5", "now=10", "1 events run"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q missing %q", msg, want)
				}
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunGuardedCleanRun(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() { n++ })
	}
	if err := e.RunGuarded(GuardConfig{MaxEvents: 100, NoProgressEvents: 5}); err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if n != 10 {
		t.Errorf("ran %d events, want 10", n)
	}
}

func TestRunGuardedZeroConfigEqualsRun(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++ })
	if err := e.RunGuarded(GuardConfig{}); err != nil {
		t.Fatalf("zero guard errored: %v", err)
	}
	if n != 1 {
		t.Error("zero guard did not run the queue")
	}
}

func TestRunGuardedDetectsLivelock(t *testing.T) {
	e := NewEngine()
	var spin func()
	spin = func() { e.At(e.Now(), spin) } // re-arms at the same cycle forever
	e.At(100, spin)
	err := e.RunGuarded(GuardConfig{NoProgressEvents: 1000})
	if err == nil {
		t.Fatal("livelock not detected")
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error %T, want *SimError", err)
	}
	if se.Kind != ErrWatchdog {
		t.Errorf("kind = %s, want %s", se.Kind, ErrWatchdog)
	}
	if se.Queue.Now != 100 {
		t.Errorf("snapshot cycle = %d, want 100 (where the livelock spins)", se.Queue.Now)
	}
	if se.Queue.Pending == 0 || len(se.Queue.NextTimes) == 0 {
		t.Errorf("snapshot should show the re-armed event: %+v", se.Queue)
	}
	if !strings.Contains(err.Error(), "no forward progress") {
		t.Errorf("error %q should name the livelock", err)
	}
}

func TestRunGuardedEventBudget(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(1, tick) } // advances time: only MaxEvents stops it
	e.At(0, tick)
	err := e.RunGuarded(GuardConfig{MaxEvents: 500, NoProgressEvents: 100})
	var se *SimError
	if !errors.As(err, &se) || se.Kind != ErrWatchdog {
		t.Fatalf("event budget not enforced: %v", err)
	}
	if e.EventsRun() != 500 {
		t.Errorf("ran %d events, want exactly the 500 budget", e.EventsRun())
	}
}

func TestRunGuardedCycleHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(10_000, func() { ran++ })
	err := e.RunGuarded(GuardConfig{MaxCycles: 100})
	var se *SimError
	if !errors.As(err, &se) || se.Kind != ErrWatchdog {
		t.Fatalf("cycle horizon not enforced: %v", err)
	}
	if ran != 1 {
		t.Errorf("ran %d events, want 1 (the pre-horizon one)", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("the post-horizon event should stay queued, pending=%d", e.Pending())
	}
}

func TestRecoverSimErrorPassesThroughOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-SimError panic was swallowed")
		}
	}()
	func() {
		var err error
		defer RecoverSimError(&err)
		panic("a genuine bug")
	}()
}

func TestFailfCarriesSnapshot(t *testing.T) {
	e := NewEngine()
	var got *SimError
	e.At(42, func() {
		defer func() {
			got = recover().(*SimError)
		}()
		e.At(50, func() {})
		e.Failf(ErrPageFault, "vpn=%#x", 0xABC)
	})
	e.Run()
	if got == nil {
		t.Fatal("Failf did not panic with *SimError")
	}
	if got.Kind != ErrPageFault || got.Queue.Now != 42 || got.Queue.Pending != 1 {
		t.Errorf("snapshot = %+v", got)
	}
	if !strings.Contains(got.Error(), "vpn=0xabc") {
		t.Errorf("message lost: %q", got.Error())
	}
}

// TestSnapshotListsPendingSlabEvents: Snapshot must list every pending
// event exactly once at its absolute cycle — the undispatched rest of
// the current cycle's bucket, same-cycle events added from a running
// handler, events whose ring index wraps behind the clock, events in
// reused slab slots, and heap events beyond the window.
func TestSnapshotListsPendingSlabEvents(t *testing.T) {
	e := NewEngine()
	const w = CalendarWindow
	check := func(when string, want ...Time) {
		t.Helper()
		s := e.Snapshot(len(want) + 5)
		if s.Pending != len(want) || len(s.NextTimes) != len(want) {
			t.Fatalf("%s: snapshot %+v, want %d pending at %v", when, s, len(want), want)
		}
		for i := range want {
			if s.NextTimes[i] != want[i] {
				t.Fatalf("%s: NextTimes = %v, want %v", when, s.NextTimes, want)
			}
		}
	}
	nop := func() {}
	e.At(10, func() {
		// B and C are still queued at this cycle; H joins behind them.
		e.At(10, nop)
		check("inside the first of three cycle-10 events", 10, 10, 10, 12, 5000, w+100, 3*w)
	})
	e.At(10, nop) // B
	e.At(10, nop) // C
	e.At(12, nop)
	e.At(5000, func() {
		// Ring index (5000+w-1)%w lies behind the clock's own index.
		e.At(5000+w-1, nop)
		check("after a wrapping schedule", w+100, 5000+w-1, 3*w)
	})
	e.At(w+100, nop) // heap: beyond the window at cycle 0
	e.At(3*w, nop)   // heap
	check("before running", 10, 10, 10, 12, 5000, w+100, 3*w)

	e.RunUntil(12)
	// The drained slots are on the free list; new events reuse them.
	e.At(13, nop)
	e.At(13, nop)
	check("after draining cycles 10 and 12", 13, 13, 5000, w+100, 3*w)

	e.RunUntil(5000)
	check("after the wrapping schedule ran", w+100, 5000+w-1, 3*w)
	e.Run()
	check("drained")
}
