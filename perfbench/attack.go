package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/victim"
)

// The attack workload extracts keys through attack.ExtractKey over the
// grid {bp, cache} attackers x {keyloop, modexp, ctcompare} victims x
// {baseline, SeMPE}, with an 8-bit key and a trial seed per cell drawn from
// the workload seed. One op is one full extraction (8 bits x 40 trials,
// each trial up to three short simulations) on a trial pool of nproc
// workers. Its cost is paid per trial: template patching in compile, core
// reset and cold superblock rebuilds in pipeline, and trial scheduling and
// statistics in attack and stattest. That uses compile and pipeline the
// opposite way from the paper workload: patching instead of compiling, and
// short cold runs instead of long warm ones.

type attackCell struct {
	params attack.KeyParams
	key    uint64
	leaky  bool
	label  string
}

// balancedKeys are the 70 8-bit keys with four set bits. Keys are drawn
// from them so that guessing one value for every bit can never pass as an
// extraction, and so that every seed's keys cost the bit-serial victims
// the same work.
var balancedKeys = func() []uint64 {
	var ks []uint64
	for k := uint64(0); k < 256; k++ {
		if bits.OnesCount64(k) == 4 {
			ks = append(ks, k)
		}
	}
	return ks
}()

// drawsPerCell is how many independent (key, trial seed) draws of a grid
// cell one round extracts. A prime+probe extraction costs about a third of
// a branch-predictor one, so with one draw each the two attackers' ops
// would form two equal latency classes and the median would sit on the gap
// between them, moving with every reordering. Two prime+probe draws per
// cell put the median inside the prime+probe class.
func drawsPerCell(k attack.Kind) int {
	if k == attack.PrimeProbe {
		return 2
	}
	return 1
}

type attackWorkload struct {
	e     *env
	cells []attackCell
	ops   []op
}

func (a *attackWorkload) setup(e *env) error {
	a.e = e
	rng := rand.New(rand.NewSource(e.seed))
	for _, kind := range attack.AllKinds() {
		for _, vname := range []string{"keyloop", "modexp", "ctcompare"} {
			v, err := victim.Lookup(vname)
			if err != nil {
				return err
			}
			for _, secure := range []bool{false, true} {
				for draw := 0; draw < drawsPerCell(kind); draw++ {
					key := balancedKeys[rng.Intn(len(balancedKeys))]
					p := attack.DefaultKeyParams(kind, secure)
					p.Victim = vname
					p.Width = 8
					p.Key = int64(key)
					p.Seed = 1 + rng.Int63n(1_000_000_000)
					p.Workers = e.nproc
					a.cells = append(a.cells, attackCell{params: p, key: key, leaky: v.Leaky(),
						label: fmt.Sprintf("%s/%s/%s/%d", kind, vname, attack.ArchName(secure), draw)})
				}
			}
		}
	}
	for i := range a.cells {
		c := &a.cells[i]
		a.ops = append(a.ops, op{label: c.label, run: func() (opResult, error) {
			kr, err := attack.ExtractKey(c.params)
			if err != nil {
				return opResult{}, err
			}
			b, err := json.Marshal(kr)
			if err != nil {
				return opResult{}, err
			}
			return opResult{digest: fnvOf(b), value: kr}, nil
		}})
	}
	// Warm-up: one untimed round fills the template memo and grows the
	// heap to its steady size.
	return warmUp(a.ops)
}

func (a *attackWorkload) round(int) []op        { return a.ops }
func (a *attackWorkload) minRounds() int        { return 10 }
func (a *attackWorkload) identicalRounds() bool { return true }
func (a *attackWorkload) close()                {}

func (a *attackWorkload) describe() []string {
	p := a.cells[0].params
	return []string{fmt.Sprintf("inputs: round of %d extractions ({bp,cache} x {keyloop,modexp,ctcompare} x {baseline,SeMPE}, cache cells drawn twice), %d-bit keys with four set bits and trial seeds from the seed, %d trials/bit, noise %d, %d trial workers, 1 client",
		len(a.cells), p.Width, p.Trials, p.Noise, p.Workers)}
}

// checkExtraction is the attack workload's output check: baseline
// extraction from a leaky victim must recover exactly the drawn key; SeMPE
// rows and the constant-time victim must show no leak at all.
func checkExtraction(c attackCell, kr attack.KeyRecovery) []string {
	if kr.Key != c.key {
		return []string{fmt.Sprintf("%s: experiment hid key %#x, benchmark drew %#x", c.label, kr.Key, c.key)}
	}
	if c.leaky && !c.params.Secure {
		if !kr.FullExtraction() || kr.Recovered != c.key {
			return []string{fmt.Sprintf("%s: recovered %#x (%d/%d bits extracted), want key %#x", c.label, kr.Recovered, kr.BitsExtracted, kr.Width, c.key)}
		}
		return nil
	}
	if kr.Leaks() {
		return []string{fmt.Sprintf("%s: leaks (%d bits extracted, max |t| %.1f)", c.label, kr.BitsExtracted, kr.MaxAbsT)}
	}
	return nil
}

func (a *attackWorkload) check(recs []opRecord) []string {
	var fails []string
	for _, r := range recs {
		if r.err == nil {
			fails = append(fails, checkExtraction(a.cells[r.index], r.res.value.(attack.KeyRecovery))...)
		}
	}
	return fails
}

func (a *attackWorkload) selftest(recs []opRecord) map[string]bool {
	out := map[string]bool{}
	for _, r := range recs {
		if r.round != 0 || r.err != nil {
			continue
		}
		c := a.cells[r.index]
		kr := r.res.value.(attack.KeyRecovery)
		switch {
		case c.leaky && !c.params.Secure:
			bad := kr
			bad.Recovered ^= 1 << 3
			out["attack flipped key bit"] = len(checkExtraction(c, bad)) > 0
		case c.params.Secure:
			bad := kr
			bad.BitsExtracted = 1
			out["attack SeMPE row reports an extracted bit"] = len(checkExtraction(c, bad)) > 0
		}
	}
	return out
}

func (a *attackWorkload) snapshot() counters {
	p := attack.PerfSnapshot()
	return counters{
		"hits": float64(p.TemplateHits), "misses": float64(p.TemplateMisses),
		"fallbacks": float64(p.TemplateFallbacks), "builds": float64(p.CoreBuilds),
		"resets": float64(p.CoreResets), "sb_builds": float64(p.SBBuilds),
		"sb_replays": float64(p.SBReplays), "sb_legacy": float64(p.SBLegacyOps),
		"trials": float64(p.Trials), "trial_s": p.TrialSeconds,
	}
}

func (a *attackWorkload) layerMetrics(recs []opRecord, before, after counters, _ float64) map[string]float64 {
	d := func(k string) float64 { return after[k] - before[k] }
	m := map[string]float64{}
	ops := float64(len(recs))
	if t := d("hits") + d("misses"); t > 0 {
		m["attack.template_hit_frac"] = d("hits") / t
	}
	m["attack.template_fallbacks"] = d("fallbacks")
	if s := d("trial_s"); s > 0 {
		m["attack.trials_per_s"] = d("trials") / s
	}
	if ops > 0 {
		m["attack.core_builds"] = d("builds") / ops
		m["pipeline.runs_per_op"] = (d("builds") + d("resets")) / ops
	}
	if f := d("sb_replays") + d("sb_legacy"); f > 0 {
		m["pipeline.sb_replay_frac"] = d("sb_replays") / f
		m["pipeline.sb_builds_per_kinst"] = d("sb_builds") / f * 1000
	}
	return m
}
