package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/jpegsim"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A metric the workload has
// no source for reads 0.
var perLayer = []metricDef{
	{"pipeline.sim_minst_per_s", "Minst/s"},
	{"pipeline.host_ns_per_cycle", "ns"},
	{"pipeline.cpu_share", "ratio"},
	{"pipeline.fetch.cpu_share", "ratio"},
	{"pipeline.decode.cpu_share", "ratio"},
	{"pipeline.rename.cpu_share", "ratio"},
	{"pipeline.issue.cpu_share", "ratio"},
	{"pipeline.writeback.cpu_share", "ratio"},
	{"pipeline.retire.cpu_share", "ratio"},
	{"pipeline.spinup.cpu_share", "ratio"},
	{"pipeline.sb_replay_frac", "ratio"},
	{"pipeline.sb_builds_per_kinst", "count"},
	{"pipeline.runs_per_op", "count"},
	{"compile.cpu_share", "ratio"},
	{"compile.us_per_compile", "us"},
	{"attack.template_hit_frac", "ratio"},
	{"attack.template_fallbacks", "count"},
	{"attack.trials_per_s", "1/s"},
	{"attack.core_builds", "count"},
	{"attack.cpu_share", "ratio"},
	{"stattest.cpu_share", "ratio"},
	{"leak.cpu_share", "ratio"},
	{"experiments.cpu_share", "ratio"},
	{"scenario.overhead_ms_per_op", "ms"},
	{"store.get_hit_frac", "ratio"},
	{"store.puts_per_op", "count"},
	{"store.cpu_share", "ratio"},
	{"cluster.dispatch_ms_p50", "ms"},
	{"cluster.retries", "count"},
	{"cluster.cpu_share", "ratio"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.cpu_share", "ratio"},
	{"obs.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.other.cpu_share", "ratio"},
	{"loadgen.cpu_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// unattributedBound is the largest runtime.other.cpu_share a traced run
// accepts: above it, the per-layer shares explain too little of the run.
const unattributedBound = 0.25

// traceMetrics derives the traced run's per-layer metrics into m and
// returns the lines describing them.
func traceMetrics(w workload, ph *phase, m map[string]float64) []string {
	var lines []string
	ops := float64(len(ph.recs))
	if cpu := metricDelta(ph.rtBefore, ph.rtAfter, "/cpu/classes/total:cpu-seconds"); cpu > 0 {
		m["runtime.gc_cpu_share"] = metricDelta(ph.rtBefore, ph.rtAfter, "/cpu/classes/gc/total:cpu-seconds") / cpu
	}
	if ops > 0 {
		m["runtime.alloc_mb_per_op"] = metricDelta(ph.rtBefore, ph.rtAfter, "/gc/heap/allocs:bytes") / ops / (1 << 20)
	}
	samples, err := decodeProfile(ph.profile)
	if err != nil {
		lines = append(lines, "FAIL: "+err.Error())
	} else {
		a := attribute(samples)
		for _, l := range attributedLayers {
			m[l+".cpu_share"] = a.share(a.layer[l])
		}
		for _, st := range pipelineStages {
			m["pipeline."+st+".cpu_share"] = a.share(a.stage[st])
		}
		m["runtime.other.cpu_share"] = a.share(a.other)
		verdict := "within"
		if m["runtime.other.cpu_share"] > unattributedBound {
			verdict = "EXCEEDS"
		}
		lines = append(lines, fmt.Sprintf("profile: %d CPU samples over the timed phase; unattributed %.1f%% %s the %.0f%% bound",
			a.total, 100*m["runtime.other.cpu_share"], verdict, 100*unattributedBound))
		type kv struct {
			k string
			v int64
		}
		var top []kv
		for k, v := range a.roots {
			top = append(top, kv{k, v})
		}
		sort.Slice(top, func(i, j int) bool { return top[i].v > top[j].v })
		for i := 0; i < len(top) && i < 3; i++ {
			lines = append(lines, fmt.Sprintf("profile: unattributed root %s %.1f%%", top[i].k, 100*a.share(top[i].v)))
		}
	}
	for k, v := range w.layerMetrics(ph.recs, ph.cBefore, ph.cAfter, ph.wallS) {
		m[k] = v
	}
	for _, d := range perLayer {
		if v, ok := m[d.name]; ok {
			lines = append(lines, fmt.Sprintf("layer: %-30s %12.4f %s", d.name, v, d.unit))
		}
	}
	return lines
}

// fingerprint names the host and build a run's numbers belong to.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "none (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads printed here equal the ones computed
// from the printed values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steady runs one workload N times (seeds seed..seed+N-1), each run a full
// orchestrated run, prints every end-to-end metric's median, quartiles,
// min/max and spread, then one traced run for the tracing overhead.
func steady(o options) error {
	vals := map[string][]float64{}
	var failShares []string
	fmt.Printf("steady: workload=%s runs=%d seeds=%d..%d seconds=%g\nhost: %s\n",
		o.workload, o.steady, o.seed, o.seed+int64(o.steady)-1, o.seconds, fingerprint())
	base := o.seed
	for i := 0; i < o.steady; i++ {
		o.seed = base + int64(i)
		o.trace = false
		res, lines, err := orchestrate(o)
		if err != nil {
			return err
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "digest:") || strings.HasPrefix(l, "FAIL") {
				fmt.Printf("  seed %d %s\n", o.seed, l)
			}
		}
		for _, d := range endToEnd {
			vals[d.name] = append(vals[d.name], res.Metrics[d.name])
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		fmt.Printf("  seed %d: correct=%t failed=%d/%d %s\n", o.seed, res.Correct, res.Failed, res.Attempted, metricLine(res.Metrics))
	}
	fmt.Printf("failed/attempted per run: %s\n", strings.Join(failShares, " "))
	fmt.Printf("%-12s %10s %10s %10s %10s %10s %8s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, d := range endToEnd {
		xs := vals[d.name]
		q1, med, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("%-12s %10.4f %10.4f %10.4f %10.4f %10.4f %7.1f%%\n", d.name, med, q1, q3, lo, hi, 100*(q3-q1)/med)
	}
	o.seed = base
	o.trace = true
	res, lines, err := orchestrate(o)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "trace:") || strings.HasPrefix(l, "profile:") {
			fmt.Println(l)
		}
	}
	fmt.Printf("traced run: correct=%t overhead %.1f%%\n", res.Correct, 100*res.Metrics["trace.overhead_frac"])
	return nil
}

func metricLine(m map[string]float64) string {
	var parts []string
	for _, d := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.4f", d.name, m[d.name]))
	}
	return strings.Join(parts, " ")
}

// refs regenerates the paper's headline figures from the full Fig. 10 and
// Fig. 8 grids: SeMPE slowdown normalised to the ideal W+1 per W,
// constant-time over SeMPE, and the djpeg overhead per format.
func refs() error {
	fmt.Printf("refs: full Fig. 10 grid (4 kernels x W=1..10, iters 8) and Fig. 8 grid (3 formats x 4 sizes)\nhost: %s\n", fingerprint())
	f10 := experiments.DefaultFig10Spec()
	f10.Workers = runtime.NumCPU()
	rows, err := experiments.Fig10(f10)
	if err != nil {
		return err
	}
	fmt.Printf("%-3s %-22s %-22s %-22s\n", "W", "SeMPE slowdown", "SeMPE/ideal(W+1)", "CTE/SeMPE")
	maxCTE := 0.0
	for _, w := range f10.Ws {
		var sl, id, ct []float64
		for _, r := range rows {
			if r.W == w {
				sl = append(sl, r.SeMPESlowdown)
				id = append(id, r.SeMPESlowdown/r.Ideal)
				ct = append(ct, r.CTESlowdown/r.SeMPESlowdown)
				maxCTE = max(maxCTE, r.CTESlowdown/r.SeMPESlowdown)
			}
		}
		fmt.Printf("%-3d %-22s %-22s %-22s\n", w, span(sl), span(id), span(ct))
	}
	fmt.Printf("CTE/SeMPE max over the grid: %.2fx (paper: up to 18x); SeMPE at W=10 (paper: 8.4-10.6x) is the W=10 row above\n", maxCTE)
	f8 := experiments.DefaultFig8Spec()
	f8.Workers = runtime.NumCPU()
	r8, err := experiments.Fig8(f8)
	if err != nil {
		return err
	}
	for _, f := range jpegsim.Formats() {
		var ov []float64
		for _, r := range r8 {
			if r.Format == f {
				ov = append(ov, 100*r.Overhead)
			}
		}
		fmt.Printf("djpeg %s overhead over sizes 256k..2048k: %s %%\n", f, span(ov))
	}
	fmt.Println("paper: djpeg overheads 31-87% (PPM > GIF > BMP). The model is compared with the paper by shape only: there is no hardware reference, so no error figure.")
	return nil
}

// span prints the min-max range of xs.
func span(xs []float64) string {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return fmt.Sprintf("%.2f-%.2f", lo, hi)
}
