package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"

	"gpureach/internal/core"
	"gpureach/internal/sweep"
	"gpureach/internal/workloads"
)

// recordRefs re-records every reference output: the GUPS run, the
// f13b-detail matrix, the scale-1.0 detailed matrix sample_err_pct is
// measured against, and the sampled matrix for every window schedule.
// Only a change that means to move simulated results runs this.
func recordRefs(root string) error {
	w, cfg, err := gupsInputs()
	if err != nil {
		return err
	}
	sys := core.NewSystem(cfg)
	kernels := w.Build(sys.Space, 1.0)
	res, err := sys.Run(w.Name, kernels)
	if err != nil {
		return fmt.Errorf("GUPS: %w", err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := saveRef(root, "gups-detail.json", gupsRef{Results: raw, Events: sys.Eng.EventsRun()}); err != nil {
		return err
	}
	fmt.Printf("gups-detail: %d cycles, %d walks, %d events\n", res.Cycles, res.PageWalks, sys.Eng.EventsRun())

	apps := workloads.Names()
	detail, err := recordMatrix(matrixSpec(apps, detailScale, 0))
	if err != nil {
		return err
	}
	if err := saveRef(root, "f13b-detail.json", detail); err != nil {
		return err
	}
	full, err := recordMatrix(matrixSpec(apps, 1.0, 0))
	if err != nil {
		return err
	}
	if err := saveRef(root, "f13b-scale1.json", full); err != nil {
		return err
	}
	sampled := sampledRefs{Schedules: map[string]matrixRef{}}
	for s := uint64(1); s <= sampleSchedules; s++ {
		ref, err := recordMatrix(matrixSpec(apps, 1.0, s))
		if err != nil {
			return err
		}
		sampled.Schedules[strconv.FormatUint(s, 10)] = ref
	}
	return saveRef(root, "f13b-sampled.json", sampled)
}

func recordMatrix(spec sweep.Spec) (matrixRef, error) {
	c, err := sweep.Execute(spec, sweep.Options{Procs: runtime.NumCPU(), RunFn: sweep.ExecuteRun})
	if err != nil {
		return matrixRef{}, err
	}
	ref := matrixRef{Scale: spec.Scale, Runs: map[string]runRef{}}
	if spec.SampleWindows > 0 {
		ref.Sample, ref.SampleSeed = c.Spec.SampleConfig().String(), spec.SampleSeed
	}
	for _, rec := range c.Records {
		if rec.Failed() {
			return matrixRef{}, fmt.Errorf("%s/%s failed: %s", rec.Run.App, rec.Run.Scheme, rec.Err)
		}
		ref.Runs[runKey(rec.Run.App, rec.Run.Scheme)] = refOf(rec)
	}
	m := &matrixWorkload{sampled: false}
	fmt.Printf("matrix scale=%g %s: %d runs, ic+lds geomean error vs paper %.2f%%\n",
		spec.Scale, ref.Sample, len(c.Records), m.qualityOf(c.Records))
	return ref, nil
}
