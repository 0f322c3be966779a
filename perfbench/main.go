// Command perfbench is gpureach's same-host benchmark. It drives the
// simulator only through its public entry points (workloads.ByName,
// Workload.Build, core.DefaultConfig, core.NewSystem, System.Run,
// System.ArmSampling, sweep.Execute with sweep.ExecuteRun behind
// Options.RunFn), checks every simulated output against the references
// in refs/, and prints its metrics by name and unit, ending with one
// JSON line. See README.md for the workloads and metrics.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload gups-detail --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh -record            # re-record refs/ (modelling changes only)
//	bash perfbench/run.sh -baseline -heldout <seed> .bench_out/results/*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports in its JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_heap_mb", "MB"},
	{"allocs_per_sim", "count"},
}

// infoMetrics are printed by untraced runs but not gated: each applies
// to one workload only, or is a deterministic simulated figure already
// pinned by the references.
var infoMetrics = []metricDef{
	{"events_per_s", "events/s"},
	{"allocs_per_event", "allocs"},
	{"paper_err_pct", "%"},
	{"sample_err_pct", "%"},
	{"fail_frac", "ratio"},
	{"wall_s.n", "count"},
	{"wall_s.tail_pct", "%"},
	{"wall_s.tail", "s"},
}

// perLayer are the metrics a traced run reports in its JSON line.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_s", "s"})
	}
	return append(out, []metricDef{
		{"runtime.gc_cpu_s", "s"},
		{"other.cpu_s", "s"},
		{"profile.coverage", "ratio"},
		{"workloads.build_s", "s"},
		{"core.new_system_s", "s"},
		{"core.run_s", "s"},
		{"sweep.execute_s", "s"},
		{"sweep.run_p50_s", "s"},
		{"sweep.run_tail_s", "s"},
		{"sweep.run_tail_pct", "%"},
		{"sweep.run_count", "count"},
		{"sweep.self_s", "s"},
		{"sweep.worker_idle_s", "s"},
		{"sweep.rerun_s", "s"},
		{"sim.events", "count"},
		{"gpu.wave_instrs", "count"},
		{"tlb.l1_hit_rate", "ratio"},
		{"tlb.l2_hit_rate", "ratio"},
		{"victim.lookups", "count"},
		{"victim.lds_hits", "count"},
		{"victim.ic_hits", "count"},
		{"walker.walks", "count"},
		{"dram.reads", "count"},
		{"dram.writes", "count"},
		{"sample.detailed_frac", "ratio"},
		{"sweep.cache_hits", "count"},
		{"sweep.retries", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.alloc_mb", "MB"},
		{"trace.overhead_s", "s"},
	}...)
}()

func main() {
	workloadName := flag.String("workload", "", "workload to run: gups-detail, f13b-detail or f13b-sampled")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	record := flag.Bool("record", false, "re-record the reference outputs in perfbench/refs")
	baseline := flag.Bool("baseline", false, "summarize the result files given as arguments into perfbench/baseline.json")
	heldout := flag.Uint64("heldout", 0, "with -baseline: the seed held out for later claims")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	switch {
	case *record:
		err = recordRefs(root)
	case *baseline:
		err = writeBaseline(root, flag.Args(), *heldout)
	default:
		spec, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown -workload %q", *workloadName))
		}
		err = runBenchmark(root, spec, *seed, *seconds, *traceFlag == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runner carries one benchmark run's state across the workload calls.
type runner struct {
	procs     int
	tr        *tracer // nil while untraced
	attempted int     // simulations attempted
	failed    int     // simulations that failed or mismatched a reference
	problems  []string
	sims      int // simulations executed in the measured phases
	allocs    uint64
	heap      *heapWatch
	peaks     []float64 // peak live heap of each timed unit, MB
}

// fail records a failed or mismatched simulation.
func (r *runner) fail(msg string) {
	r.failed++
	r.problems = append(r.problems, msg)
}

// broken records a violated harness invariant (not a simulation).
func (r *runner) broken(msg string) { r.problems = append(r.problems, msg) }

func (r *runner) allocsPerSim() float64 {
	if r.sims == 0 {
		return 0
	}
	return float64(r.allocs) / float64(r.sims)
}

// measure runs timed units until the next one would end after seconds,
// but at least minUnits, and returns each unit's wall time. It records
// each unit's peak live heap in r.peaks.
func (r *runner) measure(w workload, dirs string, next *int, seconds float64, minUnits int) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for {
		dir := filepath.Join(dirs, fmt.Sprint(*next))
		*next++
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		// Each unit starts from a collected heap, as in a fresh process.
		runtime.GC()
		r.heap.take()
		t := time.Now()
		if err := w.run(r, dir); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t).Seconds())
		r.peaks = append(r.peaks, r.heap.take())
		w.check(r)
		if len(walls) >= minUnits && time.Since(start).Seconds()+median(walls) > seconds {
			return walls, nil
		}
	}
}

// result is everything one run measured, as written to
// .bench_out/results for the baseline step.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Host      fingerprint        `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Walls     []float64          `json:"wall_samples"`
	Setups    []float64          `json:"setup_samples"`
}

func runBenchmark(root string, spec workloadSpec, seed uint64, seconds float64, traced bool) error {
	out := filepath.Join(root, ".bench_out")
	dirs := filepath.Join(out, fmt.Sprintf("campaigns-%d", os.Getpid()))
	defer os.RemoveAll(dirs)

	w, err := spec.make(root, seed)
	if err != nil {
		return err
	}
	r := &runner{procs: runtime.NumCPU()}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &result{Workload: spec.name, Seed: seed, Trace: traced, Seconds: seconds,
		Host: hostFingerprint(root), Metrics: map[string]float64{}}

	// Set-up: repeated, median reported, spans kept in traced runs. The
	// collector is paused within each repetition and run between them,
	// so setup_s counts the set-up code's own work. With it running, GC
	// cycles and re-faulting the pages the scavenger returned doubled the
	// time and moved its median by 30% between runs on a shared host.
	r.tr = tr
	gcPercent := debug.SetGCPercent(-1)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		sp := r.tr.open("setup", 0)
		t := time.Now()
		w.setup(r, sp)
		res.Setups = append(res.Setups, time.Since(t).Seconds())
		r.tr.close(sp)
	}
	debug.SetGCPercent(gcPercent)

	r.heap = watchHeap()
	before := readRuntime()
	next := 0
	var profile []stackSample
	var tracedWalls []float64
	r.tr = nil
	if !traced {
		res.Walls, err = r.measure(w, dirs, &next, seconds, spec.minUnits)
	} else {
		// First half untraced, second half traced and profiled: the
		// difference of their medians is the tracing overhead.
		if res.Walls, err = r.measure(w, dirs, &next, seconds/2, spec.traceUnits); err == nil {
			r.tr = tr
			profile, tracedWalls, err = profiled(filepath.Join(out, "cpu.pprof"), func() ([]float64, error) {
				return r.measure(w, dirs, &next, seconds/2, spec.traceUnits)
			})
		}
	}
	after := readRuntime()
	r.heap.finish()
	if err != nil {
		return err
	}
	r.allocs = after.allocObjects - before.allocObjects
	units := float64(len(res.Walls) + len(tracedWalls))

	res.Metrics["setup_s"] = median(res.Setups)
	res.Metrics["wall_s"] = median(res.Walls)
	res.Metrics["peak_heap_mb"] = median(r.peaks)
	res.Metrics["allocs_per_sim"] = r.allocsPerSim()
	t := tail(res.Walls)
	res.Metrics["wall_s.n"], res.Metrics["wall_s.tail_pct"], res.Metrics["wall_s.tail"] = float64(t.N), t.Pct, t.Value

	if traced {
		if err := w.extras(r); err != nil {
			return err
		}
		layerMetrics(res.Metrics, tr, profile, len(tracedWalls), r.procs)
		res.Metrics["trace.overhead_s"] = median(tracedWalls) - median(res.Walls)
		res.Metrics["runtime.gc_cycles"] = float64(after.gcCycles-before.gcCycles) / units
		res.Metrics["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / units
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", spec.name, seed))); err != nil {
			return err
		}
	}
	e2e, counts := w.info(r)
	for k, v := range e2e {
		res.Metrics[k] = v
	}
	if traced {
		for k, v := range counts {
			res.Metrics[k] = v
		}
	}
	if r.attempted > 0 {
		res.Metrics["fail_frac"] = float64(r.failed) / float64(r.attempted)
	}
	res.Attempted, res.Failed, res.Problems = r.attempted, r.failed, r.problems
	res.Correct = len(r.problems) == 0 && r.attempted > 0

	if err := saveResult(out, res); err != nil {
		return err
	}
	return report(os.Stdout, root, spec, res)
}

// profiled runs f under the CPU profiler and returns the decoded
// samples with f's result.
func profiled(path string, f func() ([]float64, error)) ([]stackSample, []float64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	if err := pprof.StartCPUProfile(file); err != nil {
		return nil, nil, err
	}
	walls, ferr := f()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, nil, ferr
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	samples, err := parseProfile(data)
	return samples, walls, err
}

// layerMetrics fills the per-layer CPU and span metrics of a traced
// run; CPU seconds and span totals are per traced unit of work.
func layerMetrics(m map[string]float64, tr *tracer, profile []stackSample, units, procs int) {
	folded := foldProfile(profile)
	var total, charged float64
	for _, s := range profile {
		total += float64(s.CPUNS) / 1e9
	}
	for _, l := range cpuLayers {
		m[l+".cpu_s"] = folded[l] / float64(units)
		charged += folded[l]
	}
	m["runtime.gc_cpu_s"] = folded[gcLayer] / float64(units)
	m["other.cpu_s"] = folded[otherLayer] / float64(units)
	if total > 0 {
		m["profile.coverage"] = (charged + folded[gcLayer]) / total
	}

	var setupNew, setupBuild []float64
	for _, s := range tr.named("setup", -1) {
		setupNew = append(setupNew, sum(durations(tr.named("core.new_system", s.ID))))
		setupBuild = append(setupBuild, sum(durations(tr.named("workloads.build", s.ID))))
	}
	m["core.new_system_s"] = median(setupNew)
	m["workloads.build_s"] = median(setupBuild)
	m["core.run_s"] = median(durations(tr.named("core.run", -1)))

	var execs, selfs, idles, runs []float64
	for _, e := range tr.named("sweep.execute", -1) {
		children := tr.named("sweep.run", e.ID)
		d := durations(children)
		execs = append(execs, e.dur())
		selfs = append(selfs, e.dur()-covered(children))
		idles = append(idles, float64(procs)*e.dur()-sum(d))
		runs = append(runs, d...)
	}
	t := tail(runs)
	m["sweep.execute_s"] = median(execs)
	m["sweep.self_s"] = median(selfs)
	m["sweep.worker_idle_s"] = median(idles)
	m["sweep.run_p50_s"] = median(runs)
	m["sweep.run_tail_s"], m["sweep.run_tail_pct"], m["sweep.run_count"] = t.Value, t.Pct, float64(t.N)
	m["sweep.rerun_s"] = median(durations(tr.named("sweep.rerun", -1)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func saveResult(out string, res *result) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d-t%v-%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable block, the baseline comparison, and
// the final JSON line.
func report(w *os.File, root string, spec workloadSpec, res *result) error {
	h := res.Host
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v seconds=%g: %s\n", res.Workload, res.Seed, res.Trace, res.Seconds, spec.why)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Source)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	base := loadBaseline(root)
	same, diff := false, "no baseline"
	if base != nil {
		same, diff = sameHost(base.Host, h)
	}
	if base != nil && !same {
		msg := "WARNING: host fingerprint differs from perfbench/baseline.json (" + diff + "); timings are not comparable, baseline comparison skipped"
		fmt.Fprintln(w, msg)
		fmt.Fprintln(os.Stderr, msg)
	}
	show := func(defs []metricDef) {
		for _, d := range defs {
			v, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-22s %14.6g %s", d.name, v, d.unit)
			if same {
				if s, ok := base.Workloads[res.Workload][d.name]; ok && s.Median != 0 {
					line += fmt.Sprintf("   (baseline median %.6g, %+.1f%%)", s.Median, 100*(v-s.Median)/s.Median)
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintln(w, "end-to-end:")
	show(endToEnd)
	show(infoMetrics)
	if res.Metrics["wall_s.tail_pct"] == 0 {
		fmt.Fprintf(w, "  (wall_s has no tail percentile: %d samples, a tail needs %d beyond it)\n", len(res.Walls), minBeyond)
	}
	defs := endToEnd
	if res.Trace {
		fmt.Fprintln(w, "per-layer:")
		show(perLayer)
		defs = perLayer
	}
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, d := range defs {
		final.Metrics[d.name] = metricValue{res.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// baselineFile is perfbench/baseline.json: per-workload summaries of
// repeated untraced runs on one host.
type baselineFile struct {
	Host        fingerprint                   `json:"host"`
	Recorded    string                        `json:"recorded_utc"`
	RunSeconds  float64                       `json:"run_seconds"`
	Seeds       map[string][]uint64           `json:"seeds"`
	HeldOutSeed uint64                        `json:"held_out_seed"`
	Workloads   map[string]map[string]summary `json:"workloads"`
}

func loadBaseline(root string) *baselineFile {
	data, err := os.ReadFile(filepath.Join(root, "perfbench", "baseline.json"))
	if err != nil {
		return nil
	}
	var b baselineFile
	if json.Unmarshal(data, &b) != nil {
		return nil
	}
	return &b
}

// writeBaseline summarizes untraced result files into baseline.json. It
// refuses files from different hosts or different code.
func writeBaseline(root string, files []string, heldout uint64) error {
	b := baselineFile{Seeds: map[string][]uint64{}, HeldOutSeed: heldout,
		Workloads: map[string]map[string]summary{}, Recorded: time.Now().UTC().Format(time.RFC3339)}
	values := map[string]map[string][]float64{}
	var first *result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if res.Trace {
			continue
		}
		if !res.Correct {
			return fmt.Errorf("%s: run was not correct; refusing to baseline it", f)
		}
		if first == nil {
			first = &res
		} else if ok, diff := sameHost(first.Host, res.Host); !ok || first.Host.Source != res.Host.Source {
			return fmt.Errorf("%s: fingerprint differs from %s/%d (%s; source %s vs %s); refusing to mix", f,
				first.Workload, first.Seed, diff, first.Host.Source, res.Host.Source)
		}
		if heldout != 0 && res.Seed == heldout {
			return fmt.Errorf("%s: uses the held-out seed %d", f, heldout)
		}
		if values[res.Workload] == nil {
			values[res.Workload] = map[string][]float64{}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), infoMetrics...) {
			if v, ok := res.Metrics[d.name]; ok {
				values[res.Workload][d.name] = append(values[res.Workload][d.name], v)
			}
		}
		b.Seeds[res.Workload] = append(b.Seeds[res.Workload], res.Seed)
		b.RunSeconds = res.Seconds
	}
	if first == nil {
		return fmt.Errorf("no untraced result files given")
	}
	b.Host = first.Host
	for wl, ms := range values {
		b.Workloads[wl] = map[string]summary{}
		for name, xs := range ms {
			b.Workloads[wl][name] = summarize(xs)
		}
		sort.Slice(b.Seeds[wl], func(i, j int) bool { return b.Seeds[wl][i] < b.Seeds[wl][j] })
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "perfbench", "baseline.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	var names []string
	for wl := range b.Workloads {
		names = append(names, fmt.Sprintf("%s (%d runs)", wl, len(b.Seeds[wl])))
	}
	sort.Strings(names)
	fmt.Println("wrote", path+":", strings.Join(names, ", "))
	return nil
}
