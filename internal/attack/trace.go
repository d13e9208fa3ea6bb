package attack

import (
	"repro/internal/pipeline"
)

// TraceTrial runs one attack trial program — the named victim's fragment for
// (key, width, bit) inside the attacker's measurement scaffold, with the
// trial's deterministic environment draw — with fn armed as the spec watch
// of the trial's own fresh core, and returns the attacker's observation
// vector. It exists for cmd/sempe-trace: the batch engines never trace, but
// a single traced trial shows exactly which wrong-path work the attacker's
// probe reads back. Arming the watch does not perturb the run: the vector
// equals the untraced trial's. When p.Gap > 0 the trial replays the live
// measurement (independent gap seed), not a calibration replay.
func TraceTrial(p Params, trial int, key uint64, fn func(pipeline.SpecEvent)) ([]float64, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	d := newDraw(trialRNG(p.effSeed(), trial), p)
	return runTrial(p, d, d.gapMeas, key, fn)
}
