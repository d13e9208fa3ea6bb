package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/compile"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/jpegsim"
	"repro/internal/lang"
	"repro/internal/leak"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// The paper workload regenerates the paper's evaluation through the
// scenario engine. One op is one scenario.Run of one grid point: a Fig. 10
// (kernel, W) point with its baseline, SeMPE and constant-time binaries; a
// Fig. 8 djpeg size (the scenario has no format parameter, so one op runs
// the three formats of one size); or a leakmatrix (kernel, W) cell. Almost
// all of its host time is spent inside pipeline Core.Run, so it isolates
// steady-state simulator speed and SeMPE's secure-path machinery at deep
// nesting, and barely touches attack, store, cluster or serve.

// paperIters is the Fig. 10 iteration count. The paper's default (8) makes
// the deepest quicksort point a 3 s op; 1 keeps a whole round of 56 ops near
// 5 s, so every run completes several rounds and each op is timed several
// times.
const paperIters = 1

// paperLeakWs and paperLeakIters are the leakmatrix cell depths and
// iteration count. The scenario's default depths are 10, 4 and 1; the four
// W=1 cells are left out so that a round's median op falls between two
// Fig. 10 points of nearly equal cost (quicksort W=1 and queens W=2),
// instead of on an 18% gap next to a Fig. 8 op whose cost moves with the
// image seed.
var paperLeakWs = []int{10, 4}

const paperLeakIters = 2

type paperKind int

const (
	opFig10 paperKind = iota
	opFig8
	opLeak
)

// paperOp is one grid point and the inputs drawn for it.
type paperOp struct {
	kind     paperKind
	scenario string
	spec     scenario.Spec
	label    string

	wk      workloads.Kind
	w       int
	secret  uint64 // Fig. 10 baseline input
	size    jpegsim.Size
	imgSeed uint64 // Fig. 8 image content
}

// paperAnswer is what a paper op returns to the checks.
type paperAnswer struct {
	fig10   experiments.Fig10Row
	fig8    []experiments.Fig8Row
	leak    experiments.LeakRow
	pointMS float64 // engine-reported point time (traced runs)
}

// replayStats accumulates the pipeline work the replay checks performed,
// timed by the benchmark around its own calls.
type replayStats struct {
	compiles            int
	runNS, compileNS    int64
	insts, cycles       uint64
	sbReplays, sbLegacy uint64
	sbBuilds            uint64
	runsByKind          map[paperKind][]int
}

type paperWorkload struct {
	e      *env
	inputs []paperOp
	ops    []op
	replay replayStats
}

func (p *paperWorkload) setup(e *env) error {
	p.e = e
	rng := rand.New(rand.NewSource(e.seed))
	kinds := workloads.All()
	// Deepest points first, then the shallower ones.
	for w := 10; w >= 1; w-- {
		for _, k := range kinds {
			secret := uint64(rng.Int63n(1 << uint(w)))
			p.inputs = append(p.inputs, paperOp{
				kind: opFig10, scenario: "fig10a", wk: k, w: w, secret: secret,
				label: fmt.Sprintf("fig10/%s/W=%d", k, w),
				spec: scenario.Spec{Params: map[string]string{
					"kinds": k.String(), "ws": strconv.Itoa(w),
					"iters": strconv.Itoa(paperIters), "secret": strconv.FormatUint(secret, 10)}},
			})
		}
	}
	for i := len(jpegsim.SizeLabels) - 1; i >= 0; i-- {
		size := jpegsim.SizeLabels[i]
		seed := uint64(rng.Int63n(1_000_000_000)) + 1
		p.inputs = append(p.inputs, paperOp{
			kind: opFig8, scenario: "fig8", size: size, imgSeed: seed,
			label: "fig8/" + size.Label,
			spec: scenario.Spec{Params: map[string]string{
				"sizes": size.Label, "seed": strconv.FormatUint(seed, 10), "sparsity": "60"}},
		})
	}
	for _, w := range paperLeakWs {
		for _, k := range kinds {
			secrets := leakSecrets(rng, w)
			p.inputs = append(p.inputs, paperOp{
				kind: opLeak, scenario: "leakmatrix", wk: k, w: w,
				label: fmt.Sprintf("leakmatrix/%s/W=%d", k, w),
				spec: scenario.Spec{Params: map[string]string{
					"kinds": k.String(), "ws": strconv.Itoa(w), "iters": strconv.Itoa(paperLeakIters),
					"secrets": uintsCSV(secrets)}},
			})
		}
	}
	for i := range p.inputs {
		in := &p.inputs[i]
		sc, ok := scenario.Lookup(in.scenario)
		if !ok {
			return fmt.Errorf("scenario %q not registered", in.scenario)
		}
		p.ops = append(p.ops, op{label: in.label, run: func() (opResult, error) { return p.runOp(sc, in) }})
	}
	// Warm-up: the shallow points of each grid fill the per-config core
	// pools and grow the heap before the first timed op.
	var warm []op
	for i, in := range p.inputs {
		if paperWarm(in) {
			warm = append(warm, p.ops[i])
		}
	}
	return warmUp(warm)
}

func paperWarm(in paperOp) bool {
	switch in.kind {
	case opFig10:
		return in.w <= 3
	case opFig8:
		return in.size == jpegsim.SizeLabels[0]
	}
	return in.w <= 4
}

// leakSecrets draws the leakmatrix secret family for depth w: 0 (the
// fall-through path) plus two distinct nonzero secrets other than the
// all-paths secret the scenario appends, so every cell distinguishes at
// least two paths on the baseline and simulates the same number of runs
// whatever the seed. It needs w >= 2.
func leakSecrets(rng *rand.Rand, w int) []uint64 {
	all := uint64(1)<<uint(w) - 1
	a := 1 + uint64(rng.Int63n(int64(all-1)))
	b := a
	for b == a {
		b = 1 + uint64(rng.Int63n(int64(all-1)))
	}
	return []uint64{0, a, b}
}

func uintsCSV(vs []uint64) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += ","
		}
		s += strconv.FormatUint(v, 10)
	}
	return s
}

func (p *paperWorkload) runOp(sc *scenario.Scenario, in *paperOp) (opResult, error) {
	opts := scenario.RunOptions{}
	var j *obs.Journal
	if p.e.trace {
		j = obs.NewJournal()
		opts.Journal = j
	}
	res, err := scenario.Run(sc, in.spec, opts)
	if err != nil {
		return opResult{}, err
	}
	var ans paperAnswer
	switch in.kind {
	case opFig10:
		ans.fig10 = res.Rows[0].(experiments.Fig10Row)
	case opFig8:
		for _, r := range res.Rows {
			ans.fig8 = append(ans.fig8, r.(experiments.Fig8Row))
		}
	case opLeak:
		ans.leak = res.Rows[0].(experiments.LeakRow)
	}
	for _, ev := range j.Events() {
		if ev.Name == "point" && ev.Phase == "end" {
			ans.pointMS += float64(ev.DurUS) / 1000
		}
	}
	b, err := json.Marshal(struct {
		Rows   []any
		Tables any
	}{res.Rows, res.Stable().Tables})
	if err != nil {
		return opResult{}, err
	}
	return opResult{digest: fnvOf(b), value: ans}, nil
}

func (p *paperWorkload) round(int) []op        { return p.ops }
func (p *paperWorkload) minRounds() int        { return 2 }
func (p *paperWorkload) identicalRounds() bool { return true }
func (p *paperWorkload) close()                {}

func (p *paperWorkload) describe() []string {
	n := map[paperKind]int{}
	for _, in := range p.inputs {
		n[in.kind]++
	}
	return []string{fmt.Sprintf("inputs: round of %d ops: %d Fig. 10 points (4 kernels x W=1..10, iters %d, secrets from the seed), %d Fig. 8 sizes (3 formats each, image seeds from the seed), %d leakmatrix cells (W=10,4, secret families from the seed)",
		len(p.inputs), n[opFig10], paperIters, n[opFig8], n[opLeak])}
}

// ----------------------------------------------------------------- checks

// The replay sample: every Fig. 8 op and every leakmatrix cell, plus the
// Fig. 10 points at these depths, replayed once from round 0.
var paperReplayWs = map[int]bool{1: true, 4: true, 7: true, 10: true}

// fig10Replay is an independent recomputation of one Fig. 10 point through
// compile and pipeline, with the emu golden model alongside.
type fig10Replay struct {
	baseCycles, sempeCycles, cteCycles uint64
	baseCksum, cteCksum                uint64
	emuMismatch                        []string
}

func (p *paperWorkload) check(recs []opRecord) []string {
	var fails []string
	p.replay = replayStats{runsByKind: map[paperKind][]int{}}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		in := p.inputs[r.index]
		ans := r.res.value.(paperAnswer)
		switch in.kind {
		case opFig10:
			fails = append(fails, checkFig10Order(in.label, ans.fig10)...)
		case opFig8:
			for _, row := range ans.fig8 {
				if row.SecureCycles < row.BaseCycles {
					fails = append(fails, fmt.Sprintf("%s/%s: SeMPE cycles %d below baseline %d", in.label, row.Format, row.SecureCycles, row.BaseCycles))
				}
			}
		case opLeak:
			fails = append(fails, checkLeakRow(in.label, ans.leak)...)
		}
		if r.round != 0 {
			continue
		}
		switch {
		case in.kind == opFig10 && paperReplayWs[in.w]:
			rep, err := p.replayFig10(in)
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s replay: %v", in.label, err))
				continue
			}
			fails = append(fails, checkFig10Replay(in.label, ans.fig10, rep)...)
		case in.kind == opFig8:
			fails = append(fails, p.replayFig8(in, ans.fig8)...)
		case in.kind == opLeak:
			fails = append(fails, p.replayLeak(in, ans.leak)...)
		}
	}
	return fails
}

func checkFig10Order(label string, row experiments.Fig10Row) []string {
	if row.SeMPECycles < row.BaseCycles {
		return []string{fmt.Sprintf("%s: SeMPE cycles %d below baseline %d", label, row.SeMPECycles, row.BaseCycles)}
	}
	return nil
}

func checkLeakRow(label string, row experiments.LeakRow) []string {
	var fails []string
	if len(row.SeMPE) != 0 {
		fails = append(fails, fmt.Sprintf("%s: SeMPE leaks on %v", label, row.SeMPE))
	}
	if len(row.Baseline) == 0 {
		fails = append(fails, label+": baseline leaks on no channel")
	}
	return fails
}

func checkFig10Replay(label string, row experiments.Fig10Row, rep fig10Replay) []string {
	var fails []string
	if row.BaseCycles != rep.baseCycles || row.SeMPECycles != rep.sempeCycles || row.CTECycles != rep.cteCycles {
		fails = append(fails, fmt.Sprintf("%s: op cycles base/sempe/cte %d/%d/%d, replay %d/%d/%d", label,
			row.BaseCycles, row.SeMPECycles, row.CTECycles, rep.baseCycles, rep.sempeCycles, rep.cteCycles))
	}
	if rep.cteCksum != rep.baseCksum {
		fails = append(fails, fmt.Sprintf("%s: constant-time cksum %d, baseline %d", label, rep.cteCksum, rep.baseCksum))
	}
	for _, m := range rep.emuMismatch {
		fails = append(fails, label+": "+m)
	}
	return fails
}

// simulate compiles prog and runs it on a fresh core, timing both calls.
func (p *paperWorkload) simulate(prog *lang.Program, mode compile.Mode, cfg pipeline.Config) (*compile.Output, *pipeline.Core, error) {
	t0 := time.Now()
	out, err := compile.Compile(prog, mode)
	p.replay.compileNS += int64(time.Since(t0))
	p.replay.compiles++
	if err != nil {
		return nil, nil, err
	}
	core := pipeline.New(cfg, out.Prog)
	t0 = time.Now()
	err = core.Run()
	p.replay.runNS += int64(time.Since(t0))
	if err != nil {
		return nil, nil, err
	}
	p.replay.insts += core.Stats.Insts
	p.replay.cycles += core.Stats.Cycles
	p.replay.sbReplays += core.SBStats.Replays
	p.replay.sbLegacy += core.SBStats.LegacyOps
	p.replay.sbBuilds += core.SBStats.Builds
	return out, core, nil
}

func (p *paperWorkload) replayFig10(in paperOp) (fig10Replay, error) {
	var rep fig10Replay
	hs := workloads.HarnessSpec{Kind: in.wk, W: in.w, I: paperIters, Secret: in.secret}
	prog := workloads.Harness(hs)
	base, baseCore, err := p.simulate(prog, compile.Plain, pipeline.DefaultConfig())
	if err != nil {
		return rep, fmt.Errorf("baseline: %w", err)
	}
	sem, semCore, err := p.simulate(prog, compile.SeMPE, pipeline.SecureConfig())
	if err != nil {
		return rep, fmt.Errorf("sempe: %w", err)
	}
	cte, cteCore, err := p.simulate(workloads.HarnessCT(hs), compile.Plain, pipeline.DefaultConfig())
	if err != nil {
		return rep, fmt.Errorf("cte: %w", err)
	}
	p.replay.runsByKind[opFig10] = append(p.replay.runsByKind[opFig10], 3)
	rep.baseCycles, rep.sempeCycles, rep.cteCycles = baseCore.Stats.Cycles, semCore.Stats.Cycles, cteCore.Stats.Cycles
	if rep.baseCksum, err = cksum(base, baseCore); err != nil {
		return rep, err
	}
	if rep.cteCksum, err = cksum(cte, cteCore); err != nil {
		return rep, err
	}
	rep.emuMismatch = append(rep.emuMismatch, againstEmu("baseline", emu.Legacy, base.Prog, baseCore)...)
	rep.emuMismatch = append(rep.emuMismatch, againstEmu("SeMPE", emu.SeMPE, sem.Prog, semCore)...)
	return rep, nil
}

func cksum(out *compile.Output, core *pipeline.Core) (uint64, error) {
	addr, err := out.ResultAddr("cksum")
	if err != nil {
		return 0, err
	}
	return core.Mem().Read64(addr), nil
}

// againstEmu runs prog on the functional golden model and compares the
// final architectural registers and memory with the core's.
func againstEmu(name string, mode emu.Mode, prog *isa.Program, core *pipeline.Core) []string {
	m := emu.New(mode, prog)
	if err := m.Run(); err != nil {
		return []string{fmt.Sprintf("%s emu: %v", name, err)}
	}
	var out []string
	regs := core.ArchRegs()
	for r := 0; r < isa.NumArchRegs; r++ {
		if regs[r] != m.Regs[r] {
			out = append(out, fmt.Sprintf("%s r%d: core %#x, emu %#x", name, r, regs[r], m.Regs[r]))
		}
	}
	if addr, diff := core.Mem().FirstDiff(m.Mem); diff {
		out = append(out, fmt.Sprintf("%s memory differs from emu at %#x", name, addr))
	}
	return out
}

// replayFig8 recomputes every format of one Fig. 8 size: cycles must equal
// the op's, and both binaries' checksums must equal the decoder's direct
// Go reference model.
func (p *paperWorkload) replayFig8(in paperOp, rows []experiments.Fig8Row) []string {
	var fails []string
	if len(rows) != len(jpegsim.Formats()) {
		return []string{fmt.Sprintf("%s: %d rows, want %d", in.label, len(rows), len(jpegsim.Formats()))}
	}
	for i, f := range jpegsim.Formats() {
		img := jpegsim.ImageSpec{Format: f, Blocks: in.size.Blocks, Sparsity: 60, Seed: in.imgSeed}
		prog := jpegsim.BuildProgram(img)
		base, baseCore, err := p.simulate(prog, compile.Plain, pipeline.DefaultConfig())
		if err != nil {
			return append(fails, fmt.Sprintf("%s/%s replay: %v", in.label, f, err))
		}
		sem, semCore, err := p.simulate(prog, compile.SeMPE, pipeline.SecureConfig())
		if err != nil {
			return append(fails, fmt.Sprintf("%s/%s replay: %v", in.label, f, err))
		}
		want := jpegsim.ReferenceChecksum(img)
		bc, err1 := cksum(base, baseCore)
		sc, err2 := cksum(sem, semCore)
		if err1 != nil || err2 != nil {
			return append(fails, fmt.Sprintf("%s/%s: no cksum result slot", in.label, f))
		}
		fails = append(fails, checkFig8Replay(fmt.Sprintf("%s/%s", in.label, f), rows[i],
			baseCore.Stats.Cycles, semCore.Stats.Cycles, bc, sc, want)...)
	}
	p.replay.runsByKind[opFig8] = append(p.replay.runsByKind[opFig8], 2*len(rows))
	return fails
}

func checkFig8Replay(label string, row experiments.Fig8Row, baseCycles, semCycles, baseCk, semCk, want uint64) []string {
	var fails []string
	if row.BaseCycles != baseCycles || row.SecureCycles != semCycles {
		fails = append(fails, fmt.Sprintf("%s: op cycles %d/%d, replay %d/%d", label, row.BaseCycles, row.SecureCycles, baseCycles, semCycles))
	}
	if baseCk != want || semCk != want {
		fails = append(fails, fmt.Sprintf("%s: cksum baseline %d, SeMPE %d, reference %d", label, baseCk, semCk, want))
	}
	return fails
}

// replayLeak recomputes one leakmatrix cell by calling the leak package
// directly; the leaking channels must equal the op's row.
func (p *paperWorkload) replayLeak(in paperOp, row experiments.LeakRow) []string {
	runs := 0
	build := func(mode compile.Mode) func(uint64) (*isa.Program, error) {
		return func(secret uint64) (*isa.Program, error) {
			runs++
			out, err := compile.Compile(workloads.Harness(workloads.HarnessSpec{Kind: in.wk, W: in.w, I: paperLeakIters, Secret: secret}), mode)
			if err != nil {
				return nil, err
			}
			return out.Prog, nil
		}
	}
	secrets := row.Secrets
	base, err := leak.DistinguishMany(pipeline.DefaultConfig(), build(compile.Plain), secrets)
	if err != nil {
		return []string{fmt.Sprintf("%s replay: %v", in.label, err)}
	}
	sec, err := leak.DistinguishMany(pipeline.SecureConfig(), build(compile.SeMPE), secrets)
	if err != nil {
		return []string{fmt.Sprintf("%s replay: %v", in.label, err)}
	}
	p.replay.runsByKind[opLeak] = append(p.replay.runsByKind[opLeak], runs)
	return checkLeakReplay(in.label, row, base.Leaking, sec.Leaking)
}

func checkLeakReplay(label string, row experiments.LeakRow, base, sec []leak.Channel) []string {
	if fmt.Sprint(row.Baseline) != fmt.Sprint(base) || fmt.Sprint(row.SeMPE) != fmt.Sprint(sec) {
		return []string{fmt.Sprintf("%s: op channels %v/%v, replay %v/%v", label, row.Baseline, row.SeMPE, base, sec)}
	}
	return nil
}

// selftest corrupts real answers from round 0 and confirms the checks
// reject each one.
func (p *paperWorkload) selftest(recs []opRecord) map[string]bool {
	out := map[string]bool{}
	for _, r := range recs {
		if r.round != 0 || r.err != nil {
			continue
		}
		in := p.inputs[r.index]
		ans := r.res.value.(paperAnswer)
		switch {
		case in.kind == opFig10 && in.w == 10 && in.wk == workloads.Quicksort:
			row := ans.fig10
			row.SeMPECycles = row.BaseCycles - 1
			out["fig10 SeMPE cycles below baseline"] = len(checkFig10Order(in.label, row)) > 0
			rep := fig10Replay{baseCycles: ans.fig10.BaseCycles, sempeCycles: ans.fig10.SeMPECycles, cteCycles: ans.fig10.CTECycles}
			row = ans.fig10
			row.CTECycles++
			out["fig10 altered cycle count"] = len(checkFig10Replay(in.label, row, rep)) > 0
			rep.cteCksum = rep.baseCksum + 1
			out["fig10 constant-time result altered"] = len(checkFig10Replay(in.label, ans.fig10, rep)) > 0
		case in.kind == opFig8 && len(ans.fig8) > 0:
			row := ans.fig8[0]
			out["fig8 checksum altered"] = len(checkFig8Replay(in.label, row, row.BaseCycles, row.SecureCycles, 1, 1, 2)) > 0
		case in.kind == opLeak && in.w == 10:
			row := ans.leak
			row.SeMPE = append([]leak.Channel(nil), leak.AllChannels()[0])
			out["leakmatrix SeMPE row altered"] = len(checkLeakRow(in.label, row)) > 0
			out["leakmatrix row differs from replay"] = len(checkLeakReplay(in.label, row, ans.leak.Baseline, ans.leak.SeMPE)) > 0
		}
	}
	return out
}

// ---------------------------------------------------------- layer metrics

func (p *paperWorkload) snapshot() counters { return nil }

func (p *paperWorkload) layerMetrics(recs []opRecord, _, _ counters, _ float64) map[string]float64 {
	m := map[string]float64{}
	rp := p.replay
	if rp.runNS > 0 {
		m["pipeline.sim_minst_per_s"] = float64(rp.insts) / (float64(rp.runNS) / 1e9) / 1e6
	}
	if rp.cycles > 0 {
		m["pipeline.host_ns_per_cycle"] = float64(rp.runNS) / float64(rp.cycles)
	}
	if fetched := rp.sbReplays + rp.sbLegacy; fetched > 0 {
		m["pipeline.sb_replay_frac"] = float64(rp.sbReplays) / float64(fetched)
		m["pipeline.sb_builds_per_kinst"] = float64(rp.sbBuilds) / float64(fetched) * 1000
	}
	if rp.compiles > 0 {
		m["compile.us_per_compile"] = float64(rp.compileNS) / float64(rp.compiles) / 1e3
	}
	// Runs per op: the replayed simulations per op kind, weighted by the
	// round's op mix.
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	runs := 0.0
	for _, in := range p.inputs {
		if xs := rp.runsByKind[in.kind]; len(xs) > 0 {
			runs += mean(xs)
		}
	}
	m["pipeline.runs_per_op"] = runs / float64(len(p.inputs))
	over, n := 0.0, 0
	for _, r := range recs {
		if r.err == nil {
			over += r.ms - r.res.value.(paperAnswer).pointMS
			n++
		}
	}
	if n > 0 {
		m["scenario.overhead_ms_per_op"] = over / float64(n)
	}
	return m
}
