package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmokeWorkloads runs every workload briefly: each completes, the
// checker finds no fault, and every end-to-end metric is reported.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bus for a few seconds per workload")
	}
	endToEnd, _ := benchmarkMetrics(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runWorkload(sp, 5, 2, false, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, name := range endToEnd {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value", name, m)
				}
			}
		})
	}
}

// TestSmokeTraced runs one traced workload and checks that every per-layer
// metric is reported.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bus for a few seconds")
	}
	_, perLayer := benchmarkMetrics(t)
	var out bytes.Buffer
	res, err := runWorkload(specs[0], 5, 3, true, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
	}
	for _, name := range perLayer {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(perLayer))
	}
}
