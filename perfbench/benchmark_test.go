package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must declare exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range b.Workloads {
		if i < len(workloadSpecs) && w.Name != workloadSpecs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadSpecs[i].name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			if i < len(defs) && (d.Name != defs[i].name || d.Unit != defs[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
