// Command perfbench is the repository's benchmark: three workloads (paper,
// attack, serve) run in-process against the repository's own packages,
// with end-to-end metrics from untraced runs and per-layer metrics from a
// separate traced run. See README.md for the workloads, the metrics, and
// how to read them.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --steady 5 --workload attack --seconds 20
//	bash perfbench/run.sh --refs
//
// A run is orchestrated from a parent process: every workload runs in a
// fresh child process, set-up is measured in several children, and the
// last line of standard output is one JSON object with the run's result.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many processes' set-up times feed setup_s: extra
// set-up-only children plus the measured child.
const setupSamples = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	phase    string
	steady   int
	refs     bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper | attack | serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed makes the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.phase, "phase", "", "internal: child process role (setup | run)")
	flag.IntVar(&o.steady, "steady", 0, "steadiness mode: run the workload this many times (seeds seed..seed+N-1) and print spreads")
	flag.BoolVar(&o.refs, "refs", false, "regenerate the reference figures (full Fig. 10 and Fig. 8 grids)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if o.refs {
		if err := refs(); err != nil {
			fatalf("refs: %v", err)
		}
		return
	}
	if _, err := newWorkload(o.workload); err != nil {
		fatalf("%v", err)
	}
	switch {
	case o.phase != "":
		if err := child(o); err != nil {
			fatalf("%s: %v", o.workload, err)
		}
	case o.steady > 0:
		if err := steady(o); err != nil {
			fatalf("steady: %v", err)
		}
	default:
		res, lines, err := orchestrate(o)
		if err != nil {
			fatalf("%s: %v", o.workload, err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		printResult(res, o.trace)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper":
		return &paperWorkload{}, nil
	case "attack":
		return &attackWorkload{}, nil
	case "serve":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown --workload %q (have paper, attack, serve)", name)
}

// result is one run's outcome, as a child reports it and as the last line
// of output carries it.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// childRun is one finished child process.
type childRun struct {
	res    result
	lines  []string
	setupS float64 // process start to READY, at reference host speed
	rawS   float64 // the same in wall time, calibration slices excluded
}

// runChild starts this binary in the given phase and collects its output.
// Set-up time runs from just before the process is started to the moment
// it prints READY, so it covers exec, runtime start and package
// initialisation as well as the workload's own set-up. The child takes
// calibration slices first thing, after every warm-up op and just before
// READY, and reports their mean and the time they took: set-up time
// excludes that time and is scaled by the host speed they measured.
func runChild(o options, phase string, trace bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--phase", phase, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{setupS: -1}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		var calNS, calSpent float64
		if n, _ := fmt.Sscanf(line, "READY %g %g", &calNS, &calSpent); n == 2 && cr.setupS < 0 {
			cr.rawS = time.Since(start).Seconds() - calSpent/1e9
			cr.setupS = cr.rawS * hostSpeed(calNS)
			continue
		}
		cr.lines = append(cr.lines, line)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s child: %w", phase, err)
	}
	if cr.setupS < 0 {
		return nil, fmt.Errorf("%s child never became ready", phase)
	}
	if phase == "setup" {
		return cr, nil
	}
	if len(cr.lines) == 0 {
		return nil, errors.New("child printed no result")
	}
	last := cr.lines[len(cr.lines)-1]
	cr.lines = cr.lines[:len(cr.lines)-1]
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return cr, nil
}

// orchestrate runs one benchmark run from the parent process. Untraced: a
// few set-up-only children, then the measured child; setup_s is the median
// of all their set-up times. Traced: an untraced child for reference, then
// the traced child; the traced run's overhead is their ops_per_s ratio.
func orchestrate(o options) (result, []string, error) {
	if o.trace {
		ref, err := runChild(o, "run", false)
		if err != nil {
			return result{}, nil, err
		}
		tr, err := runChild(o, "run", true)
		if err != nil {
			return result{}, nil, err
		}
		res := tr.res
		res.Correct = res.Correct && ref.res.Correct
		traced, untraced := res.Metrics["traced_ops_per_s"], ref.res.Metrics["ops_per_s"]
		delete(res.Metrics, "traced_ops_per_s")
		res.Metrics["trace.overhead_frac"] = 1 - traced/untraced
		lines := append(tr.lines, fmt.Sprintf("trace: overhead %.1f%% (traced %.3f ops/s vs untraced %.3f ops/s, same seed and length)",
			100*res.Metrics["trace.overhead_frac"], traced, untraced))
		return res, lines, nil
	}
	var setups, raws []float64
	for i := 0; i < setupSamples-1; i++ {
		cr, err := runChild(o, "setup", false)
		if err != nil {
			return result{}, nil, err
		}
		setups, raws = append(setups, cr.setupS), append(raws, cr.rawS)
	}
	cr, err := runChild(o, "run", false)
	if err != nil {
		return result{}, nil, err
	}
	setups, raws = append(setups, cr.setupS), append(raws, cr.rawS)
	res := cr.res
	res.Metrics["setup_s"] = median(setups)
	lines := append(cr.lines, fmt.Sprintf("setup: median %.3f s of %d processes %s at reference speed; wall %s",
		res.Metrics["setup_s"], len(setups), fmtList(setups, "%.3f"), fmtList(raws, "%.3f")))
	return res, lines, nil
}

// child is the body of a child process: set up, say READY, and (in the run
// phase) drive the timed phase, check the answers, and print the result.
func child(o options) error {
	w, _ := newWorkload(o.workload)
	t0 := time.Now()
	calibrate() // warms the kernel's table and code
	setupCal.spent += time.Since(t0)
	setupCal.take()
	e := &env{seed: o.seed, seconds: o.seconds, trace: o.trace, nproc: runtime.NumCPU()}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "scratch-")
	if err != nil {
		return err
	}
	e.scratch, _ = filepath.Abs(dir)
	defer os.RemoveAll(dir)
	if err := w.setup(e); err != nil {
		w.close()
		return fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	setupCal.take()
	fmt.Printf("READY %.0f %d\n", setupCal.sumNS/float64(setupCal.n), setupCal.spent.Nanoseconds())
	if o.phase == "setup" {
		return nil
	}
	ph, err := drive(w, e)
	if err != nil {
		return err
	}
	res, lines := evaluate(o.workload, w, e, ph)
	for _, l := range lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// evaluate checks a finished timed phase and derives its metrics.
func evaluate(name string, w workload, e *env, ph *phase) (result, []string) {
	res := result{Correct: true, Attempted: len(ph.recs), Metrics: map[string]float64{}}
	lines := []string{
		fmt.Sprintf("perfbench: workload=%s seed=%d seconds=%g traced=%t", name, e.seed, e.seconds, e.trace),
		"host: " + fingerprint(),
	}
	lines = append(lines, w.describe()...)
	var fails []string
	for _, r := range ph.recs {
		if r.err != nil {
			res.Failed++
			fails = append(fails, fmt.Sprintf("op %s (round %d): %v", r.label, r.round, r.err))
		}
	}
	minOps := w.minRounds() * len(w.round(0))
	tailPct := tailPercentile(minOps)
	lat := latencies(ph.recs, tailPct, true)
	raw := latencies(ph.recs, tailPct, false)
	okOps := float64(len(ph.recs) - res.Failed)
	var busyS, rawBusyS float64
	var speeds []float64
	for _, r := range ph.recs {
		busyS += r.ms * r.speed / 1000
		rawBusyS += r.ms / 1000
		speeds = append(speeds, r.speed)
	}
	sort.Float64s(speeds)
	digest, nDig := digestRecords(ph.recs, w.minRounds())
	lines = append(lines,
		fmt.Sprintf("timed: %d ops in %d rounds over %.3f s by 1 closed-loop client; process CPU %.2f s (%.0f%% of %d CPUs)",
			len(ph.recs), ph.rounds, ph.wallS, ph.cpuS, 100*ph.cpuS/ph.wallS/float64(e.nproc), e.nproc),
		"rounds: seconds per round "+fmtList(roundSeconds(ph.recs, ph.rounds), "%.2f"),
		fmt.Sprintf("host speed: %.3f median of %d ops (p10 %.3f, p90 %.3f; 1 = the reference host)",
			quantile(speeds, 0.5), len(speeds), quantile(speeds, 0.1), quantile(speeds, 0.9)),
		fmt.Sprintf("latency: p50 %.3f ms, tail p%g %.3f ms over n=%d ops (%d beyond the tail); p75/p90/p95/p99 %s ms at reference speed",
			lat.p50, lat.tailPct, lat.tail, lat.n, int(float64(lat.n)*(1-lat.tailPct/100)), fmtList(lat.ladder, "%.3f")),
		fmt.Sprintf("wall clock: %.3f ops/s busy, p50 %.3f ms, tail p%g %.3f ms",
			okOps/rawBusyS, raw.p50, raw.tailPct, raw.tail),
		fmt.Sprintf("digest: sim-stats fnv64 %016x over rounds 0..%d (%d ops)", digest, w.minRounds()-1, nDig))
	checkFails := w.check(ph.recs)
	if w.identicalRounds() {
		checkFails = append(checkFails, roundDeterminism(ph.recs)...)
	}
	st := w.selftest(ph.recs)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	rejected := 0
	for _, n := range names {
		if st[n] {
			rejected++
		} else {
			checkFails = append(checkFails, "selftest: corrupted answer accepted: "+n)
		}
	}
	lines = append(lines, fmt.Sprintf("selftest: %d/%d corrupted answers rejected (%s)", rejected, len(st), strings.Join(names, ", ")))
	if len(checkFails) > 0 {
		res.Correct = false
	}
	fails = append(fails, checkFails...)
	if len(fails) == 0 {
		lines = append(lines, "checks: all passed")
	}
	for i, f := range fails {
		if i == 20 {
			lines = append(lines, fmt.Sprintf("checks: ... %d more", len(fails)-20))
			break
		}
		lines = append(lines, "FAIL: "+f)
	}
	opsPerS := okOps / busyS
	if !e.trace {
		res.Metrics["ops_per_s"] = opsPerS
		res.Metrics["op_ms_p50"] = lat.p50
		res.Metrics["op_ms_tail"] = lat.tail
		res.Metrics["peak_rss_mb"] = ph.peakRSSMB
		return res, lines
	}
	res.Metrics["traced_ops_per_s"] = opsPerS
	layerLines := traceMetrics(w, ph, res.Metrics)
	return res, append(lines, layerLines...)
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printResult prints the last line: the result object with every metric of
// the run's kind, by name and unit.
func printResult(res result, trace bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	set := endToEnd
	if trace {
		set = perLayer
	}
	for _, m := range set {
		v, ok := res.Metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = metric{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}
