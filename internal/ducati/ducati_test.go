package ducati

import (
	"testing"

	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

type fakeMem struct {
	eng    *sim.Engine
	reads  int
	writes int
}

func (m *fakeMem) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	if write {
		m.writes++
	} else {
		m.reads++
	}
	m.eng.AfterEvent(40, h, ctx)
}

var space = vm.SpaceID{VMID: 1}

func entry(vpn vm.VPN) tlb.Entry {
	return tlb.Entry{Space: space, VPN: vpn, PFN: vm.PFN(vpn * 3)}
}

func TestLookupMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng}
	s := New(mem, 1<<30, 1024)

	var gotOK bool
	s.Lookup(entry(5).Key(), func(_ tlb.Entry, ok bool) { gotOK = ok })
	eng.Run()
	if gotOK {
		t.Fatal("hit in empty store")
	}
	s.Fill(entry(5))
	var got tlb.Entry
	s.Lookup(entry(5).Key(), func(e tlb.Entry, ok bool) { got, gotOK = e, ok })
	eng.Run()
	if !gotOK || got.PFN != 15 {
		t.Fatalf("lookup = %+v %v", got, gotOK)
	}
	st := s.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLookupAndFillGenerateMemoryTraffic(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng}
	s := New(mem, 0, 64)
	s.Lookup(entry(1).Key(), func(tlb.Entry, bool) {})
	s.Fill(entry(1))
	eng.Run()
	if mem.reads != 1 || mem.writes != 1 {
		t.Errorf("memory traffic reads=%d writes=%d, want 1/1 — DUCATI must contend for bandwidth", mem.reads, mem.writes)
	}
}

func TestLookupLatencyComesFromMemory(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng}
	s := New(mem, 0, 64)
	var doneAt sim.Time
	s.Lookup(entry(1).Key(), func(tlb.Entry, bool) { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 40 {
		t.Errorf("lookup completed at %d, want 40 (memory latency)", doneAt)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	eng := sim.NewEngine()
	s := New(&fakeMem{eng: eng}, 0, 1) // one slot: everything conflicts
	s.Fill(entry(1))
	s.Fill(entry(2))
	if s.Stats().Conflicts != 1 {
		t.Errorf("Conflicts = %d", s.Stats().Conflicts)
	}
	var ok1, ok2 bool
	s.Lookup(entry(1).Key(), func(_ tlb.Entry, ok bool) { ok1 = ok })
	s.Lookup(entry(2).Key(), func(_ tlb.Entry, ok bool) { ok2 = ok })
	eng.Run()
	if ok1 || !ok2 {
		t.Errorf("after conflict: ok1=%v ok2=%v, want false/true", ok1, ok2)
	}
}

func TestRefillSameKeyNoConflict(t *testing.T) {
	eng := sim.NewEngine()
	s := New(&fakeMem{eng: eng}, 0, 1)
	s.Fill(entry(1))
	s.Fill(entry(1))
	if s.Stats().Conflicts != 0 {
		t.Errorf("refill counted as conflict")
	}
}

func TestShootdown(t *testing.T) {
	eng := sim.NewEngine()
	s := New(&fakeMem{eng: eng}, 0, 64)
	s.Fill(entry(9))
	if !s.Shootdown(entry(9).Key()) {
		t.Fatal("shootdown missed")
	}
	if s.Shootdown(entry(9).Key()) {
		t.Error("double shootdown returned true")
	}
	var ok bool
	s.Lookup(entry(9).Key(), func(_ tlb.Entry, o bool) { ok = o })
	eng.Run()
	if ok {
		t.Error("entry survived shootdown")
	}
}

func TestZeroSlotsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero slots did not panic")
		}
	}()
	New(&fakeMem{}, 0, 0)
}

func TestHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("idle hit rate should be 0")
	}
	s := Stats{Lookups: 4, Hits: 1}
	if s.HitRate() != 0.25 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}
