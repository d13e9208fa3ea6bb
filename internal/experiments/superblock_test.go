package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/scenario"
)

// superblockDiffSpecs maps every registered scenario to a reduced grid fast
// enough to simulate twice. TestSuperblockDifferential fails if a scenario
// registers without an entry here, so new evaluations cannot silently skip
// differential coverage.
var superblockDiffSpecs = map[string]scenario.Spec{
	"table2": {},
	"fig8":   {Params: map[string]string{"sizes": "tiny:8"}},
	"fig9":   {Params: map[string]string{"sizes": "tiny:8"}},
	"fig10a": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}},
	"fig10b": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}},
	"table1": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}},
	"ablation": {Params: map[string]string{
		"kind": "ones", "w": "2", "iters": "1", "slots": "2,30", "bws": "64"}},
	"spectre": {Quick: true, Params: map[string]string{"trials": "6"}},
	"tvla":    {Quick: true, Params: map[string]string{"trials": "6"}},
	"keyextract": {Quick: true, Params: map[string]string{
		"trials": "4", "attackers": "bp", "victims": "keyloop", "widths": "2", "gaps": "0", "archs": "baseline,sempe"}},
	"noise": {Params: map[string]string{
		"trials": "4", "attackers": "cache", "victims": "keyloop", "widths": "2", "gaps": "0,64", "archs": "baseline"}},
	"leakmatrix": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2", "secrets": "2"}},
}

// TestSuperblockDifferential is the superblock engine's end-to-end
// correctness gate: every registered scenario, run with the cached-trace
// front end enabled and then force-disabled, must produce byte-identical
// stable JSON and identical typed rows. The engine claims to change no
// observable — cycle counts, cache statistics, predictor state, leakage
// digests — and this asserts that claim over the full evaluation surface,
// wrong-path replay through every mispredict and secure redirect included.
func TestSuperblockDifferential(t *testing.T) {
	for _, sc := range scenario.Scenarios() {
		spec, ok := superblockDiffSpecs[sc.Name]
		if !ok {
			t.Errorf("scenario %q has no differential spec; add one to superblockDiffSpecs", sc.Name)
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			on, err := scenario.Run(sc, spec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			prev := pipeline.SetSuperblockDefault(false)
			defer pipeline.SetSuperblockDefault(prev)
			off, err := scenario.Run(sc, spec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			onJSON, err := json.MarshalIndent(on.Stable(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			offJSON, err := json.MarshalIndent(off.Stable(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(onJSON) != string(offJSON) {
				t.Errorf("stable JSON differs with the engine disabled:\n--- on ---\n%s\n--- off ---\n%s", onJSON, offJSON)
			}
			if !reflect.DeepEqual(on.Rows, off.Rows) {
				t.Errorf("typed rows differ with the engine disabled")
			}
		})
	}
}
