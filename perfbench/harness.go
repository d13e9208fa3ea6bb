package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// env is what a workload is given: the workload seed, the timed-phase
// length, whether this is the traced run, and the load limits.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	nproc   int
	// scratch is a per-process directory inside the checkout for files a
	// workload writes (the serve workload's result store); removed on exit.
	scratch string
}

// opResult is what one op hands back: a digest of every simulated
// statistic it produced, and the workload-specific answer its checks read.
type opResult struct {
	digest uint64
	value  any
}

// op is one unit of load: one call into the system under test.
type op struct {
	label string
	run   func() (opResult, error)
}

// opRecord is one completed op of the timed phase.
type opRecord struct {
	round, index int
	label        string
	ms           float64 // wall time
	speed        float64 // host speed around the op (see hostSpeed)
	doneS        float64 // completion, seconds into the timed phase
	res          opResult
	err          error
}

// counters is a workload's snapshot of the counters its layers export.
type counters map[string]float64

// workload is one benchmark workload. Every round holds the same number of
// ops in the same order, so every run attempts whole rounds and the share
// of failed ops is the same whatever the seed and run length.
type workload interface {
	// setup makes the inputs from the seed, starts whatever the workload
	// serves from, and runs one untimed warm-up pass.
	setup(e *env) error
	// round returns the ops of round r.
	round(r int) []op
	// minRounds is the number of rounds every run completes, even past
	// --seconds; the simulated-statistics digest covers exactly these.
	minRounds() int
	// identicalRounds reports whether every round repeats round 0's ops,
	// in which case every round must reproduce round 0's digests.
	identicalRounds() bool
	// check verifies the ops' answers, outside the timed phase, and
	// returns one line per failure.
	check(recs []opRecord) []string
	// selftest corrupts real answers and returns, per corruption, whether
	// check-level validation rejected it.
	selftest(recs []opRecord) map[string]bool
	// snapshot reads the layers' exported counters (traced runs only).
	snapshot() counters
	// layerMetrics derives the workload's per-layer metrics from the timed
	// phase's records and the counter snapshots around it.
	layerMetrics(recs []opRecord, before, after counters, wallS float64) map[string]float64
	// describe prints the workload's inputs.
	describe() []string
	close()
}

// phase is the outcome of one timed phase.
type phase struct {
	recs      []opRecord
	rounds    int
	wallS     float64
	cpuS      float64 // process CPU time (user+system) over the timed phase
	peakRSSMB float64 // peak resident set when minRounds rounds were done
	profile   []byte
	rtBefore  []metrics.Sample
	rtAfter   []metrics.Sample
	cBefore   counters
	cAfter    counters
}

// drive runs the timed phase: one closed-loop client runs ops in round
// order until --seconds have passed and the current round is done (and at
// least minRounds rounds were). A calibration slice follows every op, and
// one precedes the first, so op i lies between slices i and i+1; the op's
// host speed comes from the slices around it (opSpeeds).
func drive(w workload, e *env) (*phase, error) {
	roundLen := len(w.round(0))
	if roundLen == 0 {
		return nil, fmt.Errorf("workload has empty rounds")
	}
	ph := &phase{}
	if e.trace {
		ph.cBefore = w.snapshot()
		ph.rtBefore = readRuntimeMetrics()
	}
	var prof bytes.Buffer
	if e.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	client := func() {
		cpu0 := cpuSeconds()
		start := time.Now()
		deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
		slices := []float64{calibrate()}
		for r := 0; r < w.minRounds() || time.Now().Before(deadline); r++ {
			ops := w.round(r)
			if len(ops) != roundLen {
				panic(fmt.Sprintf("round %d has %d ops, round 0 has %d", r, len(ops), roundLen))
			}
			for i, o := range ops {
				t0 := time.Now()
				res, err := o.run()
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				ph.recs = append(ph.recs, opRecord{round: r, index: i, label: o.label, ms: ms,
					doneS: time.Since(start).Seconds(), res: res, err: err})
				slices = append(slices, calibrate())
			}
			ph.rounds = r + 1
			if ph.rounds == w.minRounds() {
				ph.peakRSSMB = peakRSSMB()
			}
		}
		ph.wallS = time.Since(start).Seconds()
		ph.cpuS = cpuSeconds() - cpu0
		for i, sp := range opSpeeds(slices) {
			ph.recs[i].speed = sp
		}
	}
	if e.trace {
		pprof.Do(context.Background(), pprof.Labels("layer", "loadgen"), func(context.Context) { client() })
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
		ph.rtAfter = readRuntimeMetrics()
		ph.cAfter = w.snapshot()
	} else {
		client()
	}
	return ph, nil
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// warmUp runs ops once, untimed, in order, so per-config core pools and
// the heap reach their steady size before timing starts. A calibration
// slice follows every op, for the set-up time's host speed.
func warmUp(ops []op) error {
	for _, o := range ops {
		if _, err := o.run(); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.label, err)
		}
		setupCal.take()
	}
	return nil
}

// peakRSSMB is this process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntimeMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	runtime.GC() // settles the CPU-class accounting at the snapshot point
	metrics.Read(s)
	return s
}

func metricDelta(before, after []metrics.Sample, name string) float64 {
	val := func(s []metrics.Sample) float64 {
		for _, m := range s {
			if m.Name != name {
				continue
			}
			switch m.Value.Kind() {
			case metrics.KindFloat64:
				return m.Value.Float64()
			case metrics.KindUint64:
				return float64(m.Value.Uint64())
			}
		}
		return 0
	}
	return val(after) - val(before)
}

// latencyStats are the op-latency figures of one timed phase.
type latencyStats struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
	ladder  []float64 // p75, p90, p95, p99, printed for comparison
}

var tailLadder = []float64{75, 90, 95, 99}

// tailPercentile is the highest of a fixed ladder of percentiles that
// leaves at least ten ops beyond it in every run. It is fixed per workload
// from the op count every run is guaranteed to reach (minRounds whole
// rounds), never from the run's own count: a percentile that moved with
// the op count would jump between op classes from run to run.
func tailPercentile(minOps int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if float64(minOps)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile is the linearly interpolated q-quantile (0..1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// latencies are the successful ops' latencies, scaled to reference host
// speed when scaled is set, in wall time otherwise.
func latencies(recs []opRecord, tailPct float64, scaled bool) latencyStats {
	var ms []float64
	for _, r := range recs {
		if r.err == nil {
			if scaled {
				ms = append(ms, r.ms*r.speed)
			} else {
				ms = append(ms, r.ms)
			}
		}
	}
	sort.Float64s(ms)
	st := latencyStats{n: len(ms), p50: quantile(ms, 0.5), tail: quantile(ms, tailPct/100), tailPct: tailPct}
	for _, p := range tailLadder {
		st.ladder = append(st.ladder, quantile(ms, p/100))
	}
	return st
}

// roundSeconds is the wall time of each round, from the previous round's
// last completion to this round's. Their spread shows how steady the host
// was during the run.
func roundSeconds(recs []opRecord, rounds int) []float64 {
	last := make([]float64, rounds)
	for _, r := range recs {
		last[r.round] = max(last[r.round], r.doneS)
	}
	out := make([]float64, rounds)
	prev := 0.0
	for i, t := range last {
		out[i], prev = t-prev, t
	}
	return out
}

// digestRecords folds the per-op digests of the first rounds rounds, in op
// order, into one run digest.
func digestRecords(recs []opRecord, rounds int) (uint64, int) {
	h := fnv.New64a()
	n := 0
	var b [8]byte
	for _, r := range recs {
		if r.round >= rounds {
			continue
		}
		for i := range b {
			b[i] = byte(r.res.digest >> (8 * i))
		}
		h.Write(b[:])
		n++
	}
	return h.Sum64(), n
}

// roundDeterminism checks that every round reproduced round 0's per-op
// digests (workloads whose rounds repeat the same ops).
func roundDeterminism(recs []opRecord) []string {
	first := map[int]uint64{}
	for _, r := range recs {
		if r.round == 0 && r.err == nil {
			first[r.index] = r.res.digest
		}
	}
	var fails []string
	for _, r := range recs {
		if r.round == 0 || r.err != nil {
			continue
		}
		if want, ok := first[r.index]; ok && want != r.res.digest {
			fails = append(fails, fmt.Sprintf("round %d op %d (%s): simulated statistics differ from round 0", r.round, r.index, r.label))
		}
	}
	return fails
}

// fnvOf digests arbitrary bytes.
func fnvOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
