package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric tables the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) on the same data.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{7, 1, 3, 10, 4, 9, 2, 8, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestAttribute charges samples by their innermost module frame, falls
// back to the goroutine label, and splits pipeline time by stage.
func TestAttribute(t *testing.T) {
	a := attribute([]sample{
		{stack: []string{"runtime.mallocgc", "repro/internal/pipeline.(*Core).renameOne", "repro/internal/pipeline.(*Core).rename", "repro/internal/pipeline.(*Core).StepCycle"}, count: 3},
		{stack: []string{"repro/internal/isa.Decode", "repro/internal/compile.Compile"}, count: 2},
		{stack: []string{"net/http.(*persistConn).readLoop"}, count: 1, label: "loadgen"},
		{stack: []string{"runtime.gcBgMarkWorker"}, count: 4},
	})
	if a.total != 10 || a.layer["pipeline"] != 3 || a.stage["rename"] != 3 ||
		a.layer["compile"] != 2 || a.layer["loadgen"] != 1 || a.other != 4 {
		t.Errorf("attribution = %+v", a)
	}
}

// TestOpSpeeds measures each op's host speed from the calWindow slices on
// each side of it, fewer at the ends of the phase.
func TestOpSpeeds(t *testing.T) {
	ref := refCalNS
	got := opSpeeds([]float64{ref, ref, 2 * ref, 2 * ref, ref})
	// Op i ran between slices i and i+1. Op 0 sees slices 0..2, op 1
	// slices 0..3, op 2 slices 1..4 and op 3 slices 2..4.
	want := []float64{3.0 / 4, 4.0 / 6, 4.0 / 6, 3.0 / 5}
	if len(got) != len(want) {
		t.Fatalf("opSpeeds gave %d speeds, want %d", len(got), len(want))
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("op %d: speed %g, want %g", i, got[i], want[i])
		}
	}
}
