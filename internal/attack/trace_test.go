package attack

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

// TestTraceTrialMatchesUntraced: tracing a trial arms a spec watch on the
// trial's own core and must not perturb it — the traced observation vector
// equals the untraced runTrial's for every attacker kind and architecture,
// and the watch must actually have recorded events.
func TestTraceTrialMatchesUntraced(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%s", kind, ArchName(secure)), func(t *testing.T) {
				p := DefaultParams(kind, secure)
				for trial := 0; trial < 2; trial++ {
					for _, key := range []uint64{0, 1} {
						var events uint64
						got, err := TraceTrial(p, trial, key, func(pipeline.SpecEvent) { events++ })
						if err != nil {
							t.Fatal(err)
						}
						d := newDraw(trialRNG(p.effSeed(), trial), p)
						want, err := runTrial(p, d, d.gapMeas, key, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("trial %d key %d: traced %v != untraced %v", trial, key, got, want)
						}
						if events == 0 {
							t.Errorf("trial %d key %d: spec watch recorded no events", trial, key)
						}
					}
				}
			})
		}
	}
}
