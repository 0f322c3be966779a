package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gpureach/internal/core"
	"gpureach/internal/sample"
	"gpureach/internal/sweep"
)

// References are the simulated outputs every timed run must reproduce
// exactly. They are re-recorded only by `-record`, an explicit step a
// change to the model takes on purpose; a speed-only change never does.
const refsDir = "perfbench/refs"

// runRef pins one (app, scheme) simulation of a campaign.
type runRef struct {
	Cycles uint64 `json:"cycles"`
	Walks  uint64 `json:"walks"`
	// Digest hashes the run's full core.Results and, for sampled runs,
	// its sample.Estimate.
	Digest string `json:"digest"`
}

// matrixRef pins a whole campaign matrix at one scale (and, for
// sampled campaigns, one window schedule).
type matrixRef struct {
	Scale      float64           `json:"scale"`
	Sample     string            `json:"sample,omitempty"`
	SampleSeed uint64            `json:"sample_seed,omitempty"`
	Runs       map[string]runRef `json:"runs"` // keyed "APP/scheme"
}

// gupsRef pins the single GUPS run: all of core.Results, plus the
// engine event count it took (informational: a speed-only change may
// remove events, and events are not compared).
type gupsRef struct {
	Results json.RawMessage `json:"results"`
	Events  uint64          `json:"events"`
}

// sampledRefs pins the sampled matrix for every window-schedule seed a
// workload seed can map to.
type sampledRefs struct {
	Schedules map[string]matrixRef `json:"schedules"` // keyed by schedule seed
}

func runKey(app, scheme string) string { return app + "/" + scheme }

func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // core.Results and sample.Estimate always marshal
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func refOf(rec sweep.Record) runRef {
	return runRef{
		Cycles: uint64(rec.Results.Cycles),
		Walks:  rec.Results.PageWalks,
		Digest: digestOf(struct {
			R core.Results
			S *sample.Estimate
		}{rec.Results, rec.Sampled}),
	}
}

// compareRef checks one campaign record against its reference and
// returns "" when it matches.
func compareRef(rec sweep.Record, refs map[string]runRef) string {
	key := runKey(rec.Run.App, rec.Run.Scheme)
	if rec.Failed() {
		return fmt.Sprintf("%s failed: %s", key, rec.Err)
	}
	want, ok := refs[key]
	if !ok {
		return fmt.Sprintf("%s: no reference", key)
	}
	if got := refOf(rec); got != want {
		return fmt.Sprintf("%s: got cycles=%d walks=%d digest=%s, reference cycles=%d walks=%d digest=%s",
			key, got.Cycles, got.Walks, got.Digest, want.Cycles, want.Walks, want.Digest)
	}
	return ""
}

// compareResults checks a directly-run core.Results against the
// recorded JSON.
func compareResults(res core.Results, want json.RawMessage) string {
	got, err := json.Marshal(res)
	if err != nil {
		return err.Error()
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		return fmt.Sprintf("reference: %v", err)
	}
	if !bytes.Equal(got, compact.Bytes()) {
		return fmt.Sprintf("results differ from reference:\n got %s\nwant %s", got, compact.Bytes())
	}
	return ""
}

func loadRef(root, name string, into any) error {
	data, err := os.ReadFile(filepath.Join(root, refsDir, name))
	if err != nil {
		return fmt.Errorf("reference %s: %w", name, err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("reference %s: %w", name, err)
	}
	return nil
}

func saveRef(root, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(root, refsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
