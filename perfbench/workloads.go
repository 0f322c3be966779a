package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"gpureach/internal/core"
	"gpureach/internal/sweep"
	"gpureach/internal/workloads"
)

const (
	// detailScale is the footprint scale of the f13b-detail matrix. The
	// calibrated scale 1.0 takes ~50 s per campaign on 2 cores, more
	// than one benchmark run may spend; 0.25 keeps two cold campaigns
	// inside a run. f13b-sampled runs at the calibrated 1.0.
	detailScale = 0.25
	// Sampled execution of f13b-sampled: windows=8,frac=0.05.
	sampleWindows = 8
	sampleFrac    = 0.05
	// sampleSchedules is how many window schedules have recorded
	// references; workload seed s uses schedule 1 + s mod sampleSchedules.
	sampleSchedules = 16
	// paperICLDS is the paper's geomean ic+lds speedup (Fig 13b, +30.1%).
	paperICLDS = 1.301
)

// f13bSchemes are the Figure 13b schemes beside the baseline, which
// sweep.Spec.Normalize always adds.
var f13bSchemes = []string{"lds", "ic-aware+flush", "ic+lds"}

// workload is one benchmark input. The runner times setup and run;
// check and the trace-only extras run outside the timed region.
type workload interface {
	// setup performs one set-up repetition: everything a simulation
	// needs before its first timed cycle (workload.Build, NewSystem).
	setup(r *runner, parent int)
	// run performs one timed unit of work in a fresh directory.
	run(r *runner, dir string) error
	// check compares the last unit's outputs with the references.
	check(r *runner)
	// info returns the workload-specific end-to-end readings and the
	// simulated counters of the last unit.
	info(r *runner) (e2e, counts map[string]float64)
	// extras runs the traced run's untimed steps after profiling stops.
	extras(r *runner) error
}

// setupReps is how many set-up repetitions a run times; setup_s is
// their median, so the first repetitions' heap growth does not count.
const setupReps = 25

// workloadSpec binds a workload name to its constructor and run sizes.
type workloadSpec struct {
	name, why  string
	make       func(root string, seed uint64) (workload, error)
	minUnits   int // fewest timed units in an untraced run
	traceUnits int // fewest timed units in each half of a traced run
}

var workloadSpecs = []workloadSpec{
	{
		name:     "gups-detail",
		why:      "GUPS ic+lds at scale 1.0, full detail, one simulation at a time: the miss-dominated hot path with no sweep code",
		make:     newGups,
		minUnits: 3, traceUnits: 2,
	},
	{
		name:     "f13b-detail",
		why:      "the Fig 13b matrix (10 apps x 4 schemes) at scale 0.25 in full detail, cold campaign, procs=nproc",
		make:     func(root string, seed uint64) (workload, error) { return newMatrix(root, seed, false) },
		minUnits: 2, traceUnits: 1,
	},
	{
		name:     "f13b-sampled",
		why:      "the same matrix at scale 1.0 under sampled execution (windows=8, frac=0.05): fast-forward replaces most detail",
		make:     func(root string, seed uint64) (workload, error) { return newMatrix(root, seed, true) },
		minUnits: 3, traceUnits: 2,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// --- gups-detail -------------------------------------------------------

type gupsWorkload struct {
	w   workloads.Workload
	cfg core.Config
	ref gupsRef

	res       core.Results
	err       error
	events    uint64
	eventsPer []float64 // engine events per second of System.Run, per simulation
}

func gupsInputs() (workloads.Workload, core.Config, error) {
	w, ok := workloads.ByName("GUPS")
	if !ok {
		return w, core.Config{}, fmt.Errorf("workload GUPS not found")
	}
	scheme, ok := core.SchemeByName("ic+lds")
	if !ok {
		return w, core.Config{}, fmt.Errorf("scheme ic+lds not found")
	}
	return w, core.DefaultConfig(scheme), nil
}

// newGups ignores the seed: GUPS's trace is fixed by its generator.
func newGups(root string, _ uint64) (workload, error) {
	w, cfg, err := gupsInputs()
	if err != nil {
		return nil, err
	}
	g := &gupsWorkload{w: w, cfg: cfg}
	return g, loadRef(root, "gups-detail.json", &g.ref)
}

func (g *gupsWorkload) setup(r *runner, parent int) {
	sp := r.tr.open("core.new_system", parent)
	sys := core.NewSystem(g.cfg)
	r.tr.close(sp)
	sp = r.tr.open("workloads.build", parent)
	g.w.Build(sys.Space, 1.0)
	r.tr.close(sp)
}

func (g *gupsWorkload) run(r *runner, _ string) error {
	sys := core.NewSystem(g.cfg)
	kernels := g.w.Build(sys.Space, 1.0)
	sp := r.tr.open("core.run", 0)
	start := time.Now()
	g.res, g.err = sys.Run(g.w.Name, kernels)
	elapsed := time.Since(start).Seconds()
	r.tr.close(sp)
	g.events = sys.Eng.EventsRun()
	g.eventsPer = append(g.eventsPer, float64(g.events)/elapsed)
	r.sims++
	return nil
}

func (g *gupsWorkload) check(r *runner) {
	r.attempted++
	if g.err != nil {
		r.fail("GUPS/ic+lds failed: " + g.err.Error())
		return
	}
	if msg := compareResults(g.res, g.ref.Results); msg != "" {
		r.fail("GUPS/ic+lds: " + msg)
	}
}

func (g *gupsWorkload) info(r *runner) (map[string]float64, map[string]float64) {
	e2e := map[string]float64{"events_per_s": median(g.eventsPer)}
	if g.events > 0 && r.sims > 0 {
		e2e["allocs_per_event"] = r.allocsPerSim() / float64(g.events)
	}
	res := g.res
	return e2e, map[string]float64{
		"sim.events":           float64(g.events),
		"gpu.wave_instrs":      float64(res.WaveInstrs),
		"tlb.l1_hit_rate":      res.L1TLBHitRate,
		"tlb.l2_hit_rate":      res.L2TLBHitRate,
		"victim.lookups":       float64(res.VictimLookups),
		"victim.lds_hits":      float64(res.LDSTxHits),
		"victim.ic_hits":       float64(res.ICTxHits),
		"walker.walks":         float64(res.PageWalks),
		"dram.reads":           float64(res.DRAMReads),
		"dram.writes":          float64(res.DRAMWrites),
		"sample.detailed_frac": 1,
	}
}

func (g *gupsWorkload) extras(*runner) error { return nil }

// --- f13b-detail and f13b-sampled --------------------------------------

type matrixWorkload struct {
	// spec is the campaign of the current unit; run reshuffles its app
	// order from rng before every campaign.
	spec    sweep.Spec
	rng     *rand.Rand
	sampled bool
	refs    map[string]runRef
	// detail1 holds the scale-1.0 detailed cycles sample_err_pct is
	// measured against (sampled only).
	detail1 map[string]runRef

	last      *sweep.Campaign
	lastDir   string
	quality   []float64 // paper_err_pct or sample_err_pct per campaign
	retries   int
	events    uint64 // engine events of one campaign (traced runs only)
	cacheHits int    // rerun cache hits (traced runs only)
}

// shuffleApps puts the Table 2 apps in a new order drawn from rng. The
// order changes which long runs straggle, never any run's result.
func shuffleApps(rng *rand.Rand) []string {
	apps := workloads.Names()
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

func scheduleSeed(seed uint64) uint64 { return 1 + seed%sampleSchedules }

// matrixSpec is the Fig 13b campaign over apps; schedule > 0 selects
// sampled execution with that window-schedule seed.
func matrixSpec(apps []string, scale float64, schedule uint64) sweep.Spec {
	s := sweep.Spec{Apps: apps, Schemes: f13bSchemes, Scale: scale}
	if schedule > 0 {
		s.SampleWindows, s.SampleDetailFrac, s.SampleSeed = sampleWindows, sampleFrac, schedule
	}
	return s
}

func newMatrix(root string, seed uint64, sampled bool) (workload, error) {
	m := &matrixWorkload{sampled: sampled, rng: rand.New(rand.NewSource(int64(seed)))}
	if !sampled {
		m.spec = matrixSpec(workloads.Names(), detailScale, 0)
		var ref matrixRef
		if err := loadRef(root, "f13b-detail.json", &ref); err != nil {
			return nil, err
		}
		m.refs = ref.Runs
		return m, nil
	}
	sched := scheduleSeed(seed)
	m.spec = matrixSpec(workloads.Names(), 1.0, sched)
	var refs sampledRefs
	if err := loadRef(root, "f13b-sampled.json", &refs); err != nil {
		return nil, err
	}
	ref, ok := refs.Schedules[strconv.FormatUint(sched, 10)]
	if !ok {
		return nil, fmt.Errorf("no sampled reference for schedule seed %d", sched)
	}
	var detail matrixRef
	if err := loadRef(root, "f13b-scale1.json", &detail); err != nil {
		return nil, err
	}
	m.refs, m.detail1 = ref.Runs, detail.Runs
	return m, nil
}

func (m *matrixWorkload) setup(r *runner, parent int) {
	cfg := core.DefaultConfig(core.Baseline())
	for _, app := range m.spec.Apps {
		w, _ := workloads.ByName(app) // names come from workloads.Names
		sp := r.tr.open("core.new_system", parent)
		sys := core.NewSystem(cfg)
		r.tr.close(sp)
		sp = r.tr.open("workloads.build", parent)
		w.Build(sys.Space, m.spec.Scale)
		r.tr.close(sp)
	}
}

func (m *matrixWorkload) run(r *runner, dir string) error {
	m.spec.Apps = shuffleApps(m.rng)
	opts := sweep.Options{Procs: r.procs, OutDir: dir, RunFn: sweep.ExecuteRun}
	sp := r.tr.open("sweep.execute", 0)
	if tr := r.tr; tr != nil {
		opts.RunFn = func(run sweep.Run) (sweep.RunResult, error) {
			id := tr.open("sweep.run", sp)
			defer tr.close(id)
			return sweep.ExecuteRun(run)
		}
	}
	c, err := sweep.Execute(m.spec, opts)
	r.tr.close(sp)
	if err != nil {
		return fmt.Errorf("sweep.Execute: %w", err)
	}
	m.last, m.lastDir = c, dir
	r.sims += c.Stats.Executed
	return nil
}

func (m *matrixWorkload) check(r *runner) {
	c := m.last
	r.attempted += c.Stats.Total
	m.retries += c.Stats.Retries
	if c.Stats.Executed != c.Stats.Total {
		r.broken(fmt.Sprintf("cold campaign executed %d of %d runs", c.Stats.Executed, c.Stats.Total))
	}
	for _, rec := range c.Records {
		if msg := compareRef(rec, m.refs); msg != "" {
			r.fail(msg)
		}
	}
	m.quality = append(m.quality, m.qualityOf(c.Records))
}

// qualityOf is the campaign's simulated error: for the detailed matrix
// |geomean ic+lds speedup − 1.301| / 1.301, for the sampled one the
// mean |sampled − detailed| / detailed cycles over all runs (percent).
func (m *matrixWorkload) qualityOf(recs []sweep.Record) float64 {
	if m.sampled {
		sum, n := 0.0, 0
		for _, rec := range recs {
			ref, ok := m.detail1[runKey(rec.Run.App, rec.Run.Scheme)]
			if !ok || ref.Cycles == 0 {
				continue
			}
			sum += math.Abs(float64(rec.Results.Cycles)-float64(ref.Cycles)) / float64(ref.Cycles)
			n++
		}
		if n == 0 {
			return 0
		}
		return 100 * sum / float64(n)
	}
	base := map[string]float64{}
	for _, rec := range recs {
		if rec.Run.Scheme == core.Baseline().Name {
			base[rec.Run.App] = float64(rec.Results.Cycles)
		}
	}
	logSum, n := 0.0, 0
	for _, rec := range recs {
		if rec.Run.Scheme == "ic+lds" && rec.Results.Cycles > 0 && base[rec.Run.App] > 0 {
			logSum += math.Log(base[rec.Run.App] / float64(rec.Results.Cycles))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * math.Abs(math.Exp(logSum/float64(n))-paperICLDS) / paperICLDS
}

func (m *matrixWorkload) info(r *runner) (map[string]float64, map[string]float64) {
	name := "paper_err_pct"
	if m.sampled {
		name = "sample_err_pct"
	}
	e2e := map[string]float64{name: median(m.quality)}
	counts := map[string]float64{"sim.events": float64(m.events), "sample.detailed_frac": 1,
		"sweep.retries": float64(m.retries), "sweep.cache_hits": float64(m.cacheHits)}
	var l1, l2 float64
	var measured, total uint64
	for _, rec := range m.last.Records {
		res := rec.Results
		counts["gpu.wave_instrs"] += float64(res.WaveInstrs)
		counts["victim.lookups"] += float64(res.VictimLookups)
		counts["victim.lds_hits"] += float64(res.LDSTxHits)
		counts["victim.ic_hits"] += float64(res.ICTxHits)
		counts["walker.walks"] += float64(res.PageWalks)
		counts["dram.reads"] += float64(res.DRAMReads)
		counts["dram.writes"] += float64(res.DRAMWrites)
		l1 += res.L1TLBHitRate
		l2 += res.L2TLBHitRate
		if rec.Sampled != nil {
			measured += rec.Sampled.MeasuredInstrs
			total += rec.Sampled.TotalInstrs
		}
	}
	if n := float64(len(m.last.Records)); n > 0 {
		counts["tlb.l1_hit_rate"], counts["tlb.l2_hit_rate"] = l1/n, l2/n
	}
	if total > 0 {
		counts["sample.detailed_frac"] = float64(measured) / float64(total)
	}
	return e2e, counts
}

// extras re-executes the last traced campaign over its filled
// directory (every run a cache hit), then replays the matrix through
// core.NewSystem/System.Run to count engine events, which
// sweep.ExecuteRun does not expose. Both must reproduce the references.
func (m *matrixWorkload) extras(r *runner) error {
	sp := r.tr.open("sweep.rerun", 0)
	c, err := sweep.Execute(m.spec, sweep.Options{Procs: r.procs, OutDir: m.lastDir, RunFn: sweep.ExecuteRun})
	r.tr.close(sp)
	if err != nil {
		return fmt.Errorf("sweep.Execute rerun: %w", err)
	}
	m.cacheHits = c.Stats.CacheHits
	if c.Stats.CacheHits != c.Stats.Total {
		r.broken(fmt.Sprintf("rerun served %d of %d runs from cache", c.Stats.CacheHits, c.Stats.Total))
	}
	for _, rec := range c.Records {
		if msg := compareRef(rec, m.refs); msg != "" {
			r.broken("rerun: " + msg)
		}
	}
	m.events = m.replay(r)
	return nil
}

// replay runs every point of the matrix on r.procs goroutines through
// the core API and returns the summed engine events.
func (m *matrixWorkload) replay(r *runner) uint64 {
	runs := m.spec.Normalize().Expand()
	var (
		mu     sync.Mutex
		events uint64
		errs   []string
		wg     sync.WaitGroup
	)
	next := make(chan sweep.Run)
	for p := 0; p < r.procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range next {
				ev, msg := m.replayOne(run)
				mu.Lock()
				events += ev
				if msg != "" {
					errs = append(errs, msg)
				}
				mu.Unlock()
			}
		}()
	}
	for _, run := range runs {
		next <- run
	}
	close(next)
	wg.Wait()
	for _, msg := range errs {
		r.broken("replay: " + msg)
	}
	return events
}

func (m *matrixWorkload) replayOne(run sweep.Run) (uint64, string) {
	key := runKey(run.App, run.Scheme)
	cfg, err := run.Config()
	if err != nil {
		return 0, key + ": " + err.Error()
	}
	w, ok := workloads.ByName(run.App)
	if !ok {
		return 0, key + ": unknown workload"
	}
	sys := core.NewSystem(cfg)
	kernels := w.Build(sys.Space, run.Scale)
	sc := run.SampleConfig().Normalize()
	if sc.Enabled() {
		ctrl := sys.ArmSampling(sc, kernels)
		res, err := sys.Run(w.Name, kernels)
		if err != nil {
			return 0, key + ": " + err.Error()
		}
		core.ApplyEstimate(&res, ctrl.Estimate())
		return sys.Eng.EventsRun(), cyclesMismatch(key, res, m.refs)
	}
	res, err := sys.Run(w.Name, kernels)
	if err != nil {
		return 0, key + ": " + err.Error()
	}
	return sys.Eng.EventsRun(), cyclesMismatch(key, res, m.refs)
}

func cyclesMismatch(key string, res core.Results, refs map[string]runRef) string {
	if want := refs[key]; uint64(res.Cycles) != want.Cycles || res.PageWalks != want.Walks {
		return fmt.Sprintf("%s: cycles=%d walks=%d, reference cycles=%d walks=%d",
			key, res.Cycles, res.PageWalks, want.Cycles, want.Walks)
	}
	return ""
}
