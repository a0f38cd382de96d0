package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// tinyConfig runs every phase of a workload in well under a second: small
// libraries, one cold start, two timed jobs, no timed loop beyond them.
var tinyConfig = runConfig{seed: 7, scale: scale{e5: 16, wide: 8}, starts: 1, minJobs: 2}

// TestWorkloadsTiny runs each workload end to end and traced at tiny scale,
// with the oracle checks; a traced run also fails when a count moves between
// identical jobs.
func TestWorkloadsTiny(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measureEndToEnd(ctx, w, tinyConfig)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.correct || e2e.failed != 0 {
				t.Fatalf("end-to-end run incorrect (%d of %d failed)", e2e.failed, e2e.attempted)
			}
			for _, d := range endToEnd {
				if v := e2e.metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			o, err := measureLayers(ctx, w, tinyConfig)
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct || o.failed != 0 {
				t.Fatalf("traced run incorrect (%d of %d failed)", o.failed, o.attempted)
			}
			for _, d := range perLayer {
				if _, ok := o.metrics[d.name]; !ok {
					t.Errorf("traced run lacks %s", d.name)
				}
			}
			if w.name == "infield-e5" && o.metrics["infield.slices"] != 4 {
				t.Errorf("infield.slices = %v, want the finest E5 manifest's 4", o.metrics["infield.slices"])
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables and
// workloads the program reports, and within the benchmark contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var listed []workload
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in the program", len(b.Workloads), len(listed))
	}
	for i, w := range b.Workloads {
		if w.Name != listed[i].name || w.Why != listed[i].why || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: %q/%q, program has %q/%q", i, w.Name, w.Why, listed[i].name, listed[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !nameRE.MatchString(m.Name) {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, d)
		}
	}
}
