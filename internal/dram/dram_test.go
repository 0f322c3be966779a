package dram

import (
	"testing"

	"gpureach/internal/sim"
	"gpureach/internal/vm"
)

// newDUT disables completion jitter so tests can assert exact timings.
func newDUT() (*sim.Engine, *DRAM) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.JitterMask = 0
	return eng, New(eng, cfg)
}

func TestRowBufferHitFasterThanMiss(t *testing.T) {
	eng, d := newDUT()
	var firstDone, secondDone sim.Time
	d.AccessEvent(0, false, func(any) { firstDone = eng.Now() }, nil)
	eng.Run()
	missLatency := firstDone

	// Same bank and row (stride = channels × banksPerChannel × lineBytes):
	// a row-buffer hit.
	ch0, b0, r0 := d.decode(0)
	ch1, b1, r1 := d.decode(4096)
	if ch0 != ch1 || b0 != b1 || r0 != r1 {
		t.Fatalf("expected same channel/bank/row: %d/%d/%d vs %d/%d/%d", ch0, b0, r0, ch1, b1, r1)
	}
	d.AccessEvent(4096, false, func(any) { secondDone = eng.Now() }, nil)
	eng.Run()
	hitLatency := secondDone - firstDone
	if hitLatency >= missLatency {
		t.Errorf("row hit latency %d not faster than miss %d", hitLatency, missLatency)
	}
	s := d.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Errorf("row hits/misses = %d/%d", s.RowHits, s.RowMisses)
	}
}

func TestChannelInterleaving(t *testing.T) {
	_, d := newDUT()
	c0, _, _ := d.decode(0)
	c1, _, _ := d.decode(64)
	if c0 == c1 {
		t.Error("adjacent lines should map to different channels")
	}
	c2, _, _ := d.decode(128)
	if c2 != c0 {
		t.Error("stride-128 lines should share a channel with 2-way interleave")
	}
}

func TestBankConflictSerializes(t *testing.T) {
	eng, d := newDUT()
	cfg := DefaultConfig()
	// Two different rows, same bank: find two addresses with same bank,
	// different row.
	banksPerChannel := cfg.RanksPerChannel * cfg.BanksPerRank
	rowStride := uint64(cfg.RowBytes) * uint64(banksPerChannel) * uint64(cfg.Channels)
	a1 := vm.PA(0)
	a2 := vm.PA(rowStride)
	ch1, b1, r1 := d.decode(a1)
	ch2, b2, r2 := d.decode(a2)
	if ch1 != ch2 || b1 != b2 || r1 == r2 {
		t.Fatalf("test addresses malformed: %d/%d/%d vs %d/%d/%d", ch1, b1, r1, ch2, b2, r2)
	}
	var t1, t2 sim.Time
	d.AccessEvent(a1, false, func(any) { t1 = eng.Now() }, nil)
	d.AccessEvent(a2, false, func(any) { t2 = eng.Now() }, nil)
	eng.Run()
	// Second access must wait for the first plus a precharge.
	if t2 <= t1 {
		t.Errorf("bank-conflicting accesses completed %d then %d", t1, t2)
	}
	if d.Stats().RowMisses != 2 {
		t.Errorf("row misses = %d, want 2", d.Stats().RowMisses)
	}
}

func TestParallelBanksOverlap(t *testing.T) {
	eng, d := newDUT()
	// Same channel, different banks: line stride of Channels*LineBytes.
	a1 := vm.PA(0)
	a2 := vm.PA(128)
	_, b1, _ := d.decode(a1)
	_, b2, _ := d.decode(a2)
	if b1 == b2 {
		t.Fatal("addresses map to same bank")
	}
	var t1, t2 sim.Time
	d.AccessEvent(a1, false, func(any) { t1 = eng.Now() }, nil)
	d.AccessEvent(a2, false, func(any) { t2 = eng.Now() }, nil)
	eng.Run()
	// Bank access overlaps; only the bus burst serializes them.
	if t2-t1 > DefaultConfig().TBurst {
		t.Errorf("bank-parallel accesses separated by %d, want ≤ burst %d", t2-t1, DefaultConfig().TBurst)
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng, d := newDUT()
	d.AccessEvent(0, false, func(any) {}, nil)
	d.AccessEvent(0, true, func(any) {}, nil)
	eng.Run()
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	cfg := DefaultConfig()
	wantDynamic := cfg.ActPrePJ + cfg.ReadPJ + cfg.WritePJ // one activate, one rd, one wr
	if got := s.CommandEnergyPJ(); got != wantDynamic {
		t.Errorf("command energy = %v, want %v", got, wantDynamic)
	}
	// Background energy grows with time.
	e1 := d.TotalEnergyPJ(1000)
	e2 := d.TotalEnergyPJ(2000)
	if e2 <= e1 {
		t.Error("background energy did not grow with elapsed time")
	}
}

func TestRowHitRate(t *testing.T) {
	eng, d := newDUT()
	for i := 0; i < 10; i++ {
		d.AccessEvent(0, false, func(any) {}, nil)
		eng.Run()
	}
	if hr := d.Stats().RowHitRate(); hr < 0.89 || hr > 0.91 {
		t.Errorf("row hit rate = %v, want 0.9", hr)
	}
	if (Stats{}).RowHitRate() != 0 {
		t.Error("idle row hit rate should be 0")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero channels did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Channels = 0
	New(sim.NewEngine(), cfg)
}

func TestBusUtilization(t *testing.T) {
	eng, d := newDUT()
	for i := 0; i < 8; i++ {
		d.AccessEvent(vm.PA(i*64), false, func(any) {}, nil)
	}
	eng.Run()
	utils := d.BusUtilization(eng.Now())
	if len(utils) != 2 {
		t.Fatalf("got %d channels", len(utils))
	}
	for i, u := range utils {
		if u <= 0 || u > 1 {
			t.Errorf("channel %d utilization %v out of (0,1]", i, u)
		}
	}
}
