package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// protoBuilder writes the subset of profile.proto the decoder reads.
type protoBuilder struct {
	strs  []string
	funcs map[string]uint64
	locs  uint64
	out   []byte
}

func (b *protoBuilder) str(s string) uint64 {
	for i, x := range b.strs {
		if x == s {
			return uint64(i)
		}
	}
	b.strs = append(b.strs, s)
	return uint64(len(b.strs) - 1)
}

func varintField(num int, v uint64) []byte {
	out := binary.AppendUvarint(nil, uint64(num)<<3)
	return binary.AppendUvarint(out, v)
}

func bytesField(num int, payload []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(num)<<3|2)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

func (b *protoBuilder) fn(name string) uint64 {
	if id, ok := b.funcs[name]; ok {
		return id
	}
	id := uint64(len(b.funcs) + 1)
	b.funcs[name] = id
	b.out = append(b.out, bytesField(5, append(varintField(1, id), varintField(2, b.str(name))...))...)
	return id
}

// sample adds one sample whose stack is given as locations, innermost
// first; a location with several names holds inlined frames.
func (b *protoBuilder) sample(cpuNS uint64, stack ...[]string) {
	var packed []byte
	for _, frames := range stack {
		b.locs++
		loc := varintField(1, b.locs)
		for _, f := range frames {
			loc = append(loc, bytesField(4, varintField(1, b.fn(f)))...)
		}
		b.out = append(b.out, bytesField(4, loc)...)
		packed = binary.AppendUvarint(packed, b.locs)
	}
	var values []byte
	values = binary.AppendUvarint(values, 1)
	values = binary.AppendUvarint(values, cpuNS)
	b.out = append(b.out, bytesField(2, append(bytesField(1, packed), bytesField(2, values)...))...)
}

func (b *protoBuilder) bytes() []byte {
	var head []byte
	head = append(head, bytesField(1, append(varintField(1, b.str("samples")), varintField(2, b.str("count"))...))...)
	head = append(head, bytesField(1, append(varintField(1, b.str("cpu")), varintField(2, b.str("nanoseconds"))...))...)
	out := append(head, b.out...)
	for _, s := range b.strs {
		out = append(out, bytesField(6, []byte(s))...)
	}
	return out
}

func one(name string) []string { return []string{name} }

func TestFoldChargesHelpersToCallingLayer(t *testing.T) {
	b := &protoBuilder{funcs: map[string]uint64{}}
	b.str("") // string_table[0] is always ""
	// Go map helper under the cache layer → cache.
	b.sample(10e6, one("runtime.mapaccess2_fast64"), one("gpureach/internal/cache.(*Cache).Access"),
		one("gpureach/internal/sim.(*Engine).Run"))
	// Malloc under a helper repo package (stats) called by sample → sample.
	b.sample(20e6, one("runtime.mallocgc"), one("gpureach/internal/stats.Of"),
		one("gpureach/internal/sample.(*Controller).Estimate"))
	// Background mark worker → runtime.gc.
	b.sample(30e6, one("runtime.scanobject"), one("runtime.gcDrain"), one("runtime.gcBgMarkWorker"))
	// Mark assist inside an allocation made by tlb → runtime.gc, not tlb.
	b.sample(40e6, one("runtime.gcDrainN"), one("runtime.gcAssistAlloc1"), one("runtime.gcAssistAlloc"),
		one("runtime.mallocgc"), one("gpureach/internal/tlb.(*TLB).Insert"))
	// Inlined frames in one location: memmove inlined into dram → dram.
	b.sample(50e6, []string{"runtime.memmove", "gpureach/internal/dram.(*DRAM).Access"},
		one("gpureach/internal/cache.(*Cache).fill"))
	// Generic method names still resolve their package.
	b.sample(60e6, one("gpureach/internal/sim.(*Pool[go.shape.struct {}]).Get"))
	// The scheduler with no layer above it → other.
	b.sample(70e6, one("runtime.futex"), one("runtime.schedule"))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(b.bytes())
	zw.Close()
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(samples))
	}
	got := foldProfile(samples)
	want := map[string]float64{"cache": 0.01, "sample": 0.02, gcLayer: 0.07, "dram": 0.05, "sim": 0.06, otherLayer: 0.07}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("folded layers %v, want %v", got, want)
	}
}

// The decoder must read what runtime/pprof actually writes.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range samples {
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".TestParseRealProfile") {
				found = true
			}
		}
		if s.CPUNS <= 0 {
			t.Fatalf("sample without CPU time: %+v", s)
		}
	}
	if len(samples) == 0 || !found {
		t.Fatalf("parsed %d samples, test frame found=%v: %v", len(samples), found, samples)
	}
}
