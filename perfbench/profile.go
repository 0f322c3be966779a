package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder — the module takes no
// dependencies — and folds their samples into the simulator's layers.

// stackSample is one profile sample: its call stack, innermost frame
// first, and the CPU time it stands for.
type stackSample struct {
	Stack []string
	CPUNS int64
}

// parseProfile decodes a gzipped (or raw) profile.proto CPU profile.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		types     []int64 // sample_type string indices, in value order
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → name string index
	)
	err := eachField(data, func(f field) error {
		switch f.num {
		case 1: // sample_type
			return eachField(f.bytes, func(v field) error {
				if v.num == 1 {
					types = append(types, int64(v.varint))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(f.bytes, func(v field) error {
				switch v.num {
				case 1:
					return v.uints(func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return v.uints(func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(v field) error {
				switch v.num {
				case 1:
					id = v.varint
				case 4: // line
					return eachField(v.bytes, func(l field) error {
						if l.num == 1 {
							fns = append(fns, l.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.bytes, func(v field) error {
				switch v.num {
				case 1:
					id = v.varint
				case 2:
					name = int64(v.varint)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(raws))
	for _, r := range raws {
		if cpu >= len(r.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		s := stackSample{CPUNS: r.values[cpu]}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.Stack = append(s.Stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// field is one decoded protobuf field: a varint (wire types 0, 1, 5)
// or a length-delimited payload (wire type 2).
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// uints visits a repeated integer field, packed or not.
func (f field) uints(visit func(uint64)) error {
	if f.wire != 2 {
		visit(f.varint)
		return nil
	}
	for b := f.bytes; len(b) > 0; {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		visit(x)
		b = b[n:]
	}
	return nil
}

func eachField(b []byte, visit func(field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
		case 1, 5:
			n = 8
			if f.wire == 5 {
				n = 4
			}
			if len(b) < n {
				return errors.New("profile: truncated fixed field")
			}
			for i := n - 1; i >= 0; i-- {
				f.varint = f.varint<<8 | uint64(b[i])
			}
		case 2:
			l, m := uvarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return errors.New("profile: truncated field")
			}
			f.bytes = b[m : m+int(l)]
			n = m + int(l)
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		b = b[n:]
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repoPrefix marks the simulator's packages in profile frame names.
const repoPrefix = "gpureach/internal/"

// cpuLayers are the simulator packages a CPU sample can be charged to.
// Other repo packages (stats, metrics, check, chaos, …) are helpers, as
// are the Go runtime and standard library: their samples go to the
// nearest calling layer.
var cpuLayers = []string{
	"sim", "gpu", "tlb", "victim", "lds", "icache", "bdc", "walker",
	"cache", "dram", "vm", "workloads", "core", "sample", "sweep",
}

// gcLayer collects GC work: background mark workers, mark assists, and
// the background sweeper and scavenger.
const gcLayer = "runtime.gc"

// otherLayer collects what no layer called: the scheduler, the
// harness itself, and I/O outside any layer.
const otherLayer = "other"

var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcAssistAlloc1": true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerOf charges one stack (innermost frame first) to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return gcLayer
		}
	}
	for _, fn := range stack {
		if pkg := repoPackage(fn); pkg != "" && isLayer(pkg) {
			return pkg
		}
	}
	return otherLayer
}

// repoPackage returns the simulator package a frame belongs to, or "".
func repoPackage(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isLayer(pkg string) bool {
	for _, l := range cpuLayers {
		if l == pkg {
			return true
		}
	}
	return false
}

// foldProfile sums CPU seconds per layer.
func foldProfile(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.Stack)] += float64(s.CPUNS) / 1e9
	}
	return out
}
