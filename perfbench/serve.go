package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
)

// The serve workload runs an in-process sempe-serve front end in cluster
// mode, two in-process workers on loopback, and an on-disk store in a
// scratch directory. One closed-loop client POSTs /runs with wait for a
// seeded mix of small shardable sweeps (quick spectre, narrowed
// keyextract, fig8, ablation and fig10). Most specs are new: they are
// sharded to the workers through cluster and written to store. A minority
// repeat specs computed during warm-up and must be answered without
// simulating; the repeated specs outnumber the front end's LRU, so repeats
// are answered partly from the LRU and partly from the store. Repeats stay
// a minority so both latency percentiles fall among computed requests. It
// is the only workload that crosses serve, cluster, store and obs.

const (
	serveLRU        = 4 // front-end result-cache capacity
	servePool       = 8 // specs repeated from warm-up; more than serveLRU
	serveShardSize  = 2 // grid points per dispatched shard
	serveWorkerProc = 2 // in-process cluster workers
)

type serveSpec struct {
	Scenario string        `json:"scenario"`
	Spec     scenario.Spec `json:"spec"`
	label    string
}

// serveAnswer is what one POST /runs returned.
type serveAnswer struct {
	spec      serveSpec
	repeatOf  int // pool index for repeats, -1 for new specs
	cached    bool
	stable    []byte // stable JSON of the result
	elapsedMS float64
	journal   []obs.Event // traced runs only
}

type serveWorkload struct {
	e       *env
	st      *store.Store
	servers []*http.Server
	served  sync.WaitGroup
	front   string
	client  *http.Client
	prefix  uint64 // seed-derived part (0..9999) of every new spec's varied parameter
	pool    []serveSpec
	first   []serveAnswer // the pool's first answers
	rounds  map[int][]op
	mu      sync.Mutex
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// listen serves h on a loopback port. In traced runs the server's
// goroutines carry the serve layer label, so HTTP work with no module frame
// on its stack is still charged to the server side.
func (s *serveWorkload) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		if s.e.trace {
			pprof.Do(context.Background(), pprof.Labels("layer", "serve"), func(context.Context) { srv.Serve(ln) })
		} else {
			srv.Serve(ln)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

func (s *serveWorkload) setup(e *env) error {
	s.e = e
	s.rounds = map[int][]op{}
	var err error
	if s.st, err = store.Open(filepath.Join(e.scratch, "store")); err != nil {
		return err
	}
	var workers []string
	for i := 0; i < serveWorkerProc; i++ {
		url, err := s.listen(serve.New(serve.Options{Worker: true, MaxWorkers: e.nproc, Logger: quietLog}).Handler())
		if err != nil {
			return err
		}
		workers = append(workers, url)
	}
	front := serve.New(serve.Options{
		MaxWorkers:       e.nproc,
		CacheEntries:     serveLRU,
		Store:            s.st,
		ClusterWorkers:   workers,
		ClusterShardSize: serveShardSize,
		Logger:           quietLog,
	})
	if s.front, err = s.listen(front.Handler()); err != nil {
		return err
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: e.nproc, MaxConnsPerHost: e.nproc, IdleConnTimeout: time.Minute}}
	s.prefix = uint64(rand.New(rand.NewSource(e.seed)).Int63n(10_000))
	// Warm-up: compute the repeat pool through the service, keeping each
	// spec's first answer. This also fills the workers' core pools.
	s.first = make([]serveAnswer, servePool)
	var warm []op
	for i := 0; i < servePool; i++ {
		sp := s.newSpec(-1, i)
		s.pool = append(s.pool, sp)
		warm = append(warm, op{label: sp.label, run: func() (opResult, error) {
			ans, err := s.post(sp)
			s.first[i] = ans
			return opResult{}, err
		}})
	}
	return warmUp(warm)
}

// newSpec is the spec for slot slot of round r (r = -1 is the warm-up
// pool). Every spec carries a parameter unique to (seed, round, slot), so a
// new spec is never answered from a cache.
func (s *serveWorkload) newSpec(r, slot int) serveSpec {
	// Seeds and secrets stay below 10^9 (a fig10 secret is an immediate of
	// the compiled program and must fit in 32 bits), and are unique for the
	// first 999 rounds.
	u := s.prefix*100_000 + uint64(r+1)*100 + uint64(slot)
	us := strconv.FormatUint(u, 10)
	var sp serveSpec
	switch slot % 5 {
	case 0:
		sp = serveSpec{Scenario: "keyextract", Spec: scenario.Spec{Quick: true, Params: map[string]string{
			"attackers": "bp", "victims": "keyloop,ctcompare", "seed": us}}}
	case 1:
		sp = serveSpec{Scenario: "fig10a", Spec: scenario.Spec{Params: map[string]string{
			"kinds": "fibonacci", "ws": "1,4,10", "iters": "2", "secret": us}}}
	case 2:
		sp = serveSpec{Scenario: "spectre", Spec: scenario.Spec{Quick: true, Params: map[string]string{
			"seed": us}}}
	case 3:
		sp = serveSpec{Scenario: "fig8", Spec: scenario.Spec{Params: map[string]string{
			"sizes": "256k,512k", "seed": us}}}
	default:
		sp = serveSpec{Scenario: "ablation", Spec: scenario.Spec{Quick: true, Params: map[string]string{
			"kind": "ones", "w": "4", "bws": "16," + strconv.FormatUint(32+u%100_000, 10)}}}
	}
	sp.label = fmt.Sprintf("%s/r%d/s%d", sp.Scenario, r, slot)
	return sp
}

// round r: six new specs and two repeats of pool spec r mod servePool. The
// first repeat misses the LRU (the pool spec was evicted long ago) and is
// answered from the store, which puts it back in the LRU; the second
// follows one compute later and is answered from the LRU.
func (s *serveWorkload) round(r int) []op {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ops, ok := s.rounds[r]; ok {
		return ops
	}
	newOp := func(slot int) op {
		sp := s.newSpec(r, slot)
		return op{label: sp.label, run: func() (opResult, error) { return s.answer(sp, -1) }}
	}
	rep := r % servePool
	repOp := op{label: fmt.Sprintf("repeat/%s", s.pool[rep].label), run: func() (opResult, error) {
		return s.answer(s.pool[rep], rep)
	}}
	ops := []op{newOp(0), repOp, newOp(1), repOp, newOp(2), newOp(3), newOp(4), newOp(5)}
	s.rounds[r] = ops
	return ops
}

func (s *serveWorkload) answer(sp serveSpec, repeatOf int) (opResult, error) {
	ans, err := s.post(sp)
	if err != nil {
		return opResult{}, err
	}
	ans.repeatOf = repeatOf
	return opResult{digest: fnvOf(ans.stable), value: ans}, nil
}

// post sends one POST /runs with wait and decodes the finished run. A
// non-2xx answer or a run that is not done fails the op.
func (s *serveWorkload) post(sp serveSpec) (serveAnswer, error) {
	body, err := json.Marshal(struct {
		serveSpec
		Wait bool `json:"wait"`
	}{sp, true})
	if err != nil {
		return serveAnswer{}, err
	}
	resp, err := s.client.Post(s.front+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serveAnswer{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return serveAnswer{}, err
	}
	if resp.StatusCode/100 != 2 {
		return serveAnswer{}, fmt.Errorf("POST /runs: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var view struct {
		ID     string           `json:"id"`
		Status string           `json:"status"`
		Cached bool             `json:"cached"`
		Error  string           `json:"error"`
		Result *scenario.Result `json:"result"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		return serveAnswer{}, fmt.Errorf("run view: %w", err)
	}
	if view.Status != "done" || view.Result == nil {
		return serveAnswer{}, fmt.Errorf("run %s is %s: %s", view.ID, view.Status, view.Error)
	}
	stable, err := json.Marshal(view.Result.Stable())
	if err != nil {
		return serveAnswer{}, err
	}
	ans := serveAnswer{spec: sp, cached: view.Cached, stable: stable, elapsedMS: view.Result.ElapsedMillis}
	if s.e.trace {
		ans.journal, err = s.events(view.ID)
	}
	return ans, err
}

func (s *serveWorkload) events(id string) ([]obs.Event, error) {
	resp, err := s.client.Get(s.front + "/runs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v struct {
		Events []obs.Event `json:"events"`
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /runs/%s/events: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return v.Events, nil
}

func (s *serveWorkload) minRounds() int        { return 25 }
func (s *serveWorkload) identicalRounds() bool { return false }

func (s *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		srv.Shutdown(ctx)
	}
	s.served.Wait()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func (s *serveWorkload) describe() []string {
	return []string{fmt.Sprintf("inputs: round of 8 POST /runs: 6 new specs (keyextract quick bp x {keyloop,ctcompare}, fig10a fibonacci W=1,4,10, spectre quick, fig8 256k+512k, ablation quick, keyextract) with seed/secret params unique to (seed %d, round, slot), 2 repeats of a %d-spec warm-up pool (LRU %d); %d workers, shard size %d, 1 client",
		s.e.seed, servePool, serveLRU, serveWorkerProc, serveShardSize)}
}

// ----------------------------------------------------------------- checks

// checkServeAnswer compares one answer with its reference: the in-process
// engine result for a new spec, the pool's first answer for a repeat.
func checkServeAnswer(ans serveAnswer, want []byte) []string {
	var fails []string
	if ans.repeatOf >= 0 && !ans.cached {
		fails = append(fails, fmt.Sprintf("%s: repeat was recomputed", ans.spec.label))
	}
	if ans.repeatOf < 0 && ans.cached {
		fails = append(fails, fmt.Sprintf("%s: new spec answered from a cache", ans.spec.label))
	}
	if !bytes.Equal(ans.stable, want) {
		fails = append(fails, fmt.Sprintf("%s: result differs from its reference", ans.spec.label))
	}
	return fails
}

// reference computes a spec in-process through the scenario engine alone,
// bypassing serve, cluster and store.
func reference(sp serveSpec, workers int) ([]byte, error) {
	sc, ok := scenario.Lookup(sp.Scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q not registered", sp.Scenario)
	}
	spec := sp.Spec
	spec.Workers = workers
	res, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Stable())
}

func (s *serveWorkload) check(recs []opRecord) []string {
	var fails []string
	var fresh []serveAnswer
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		ans := r.res.value.(serveAnswer)
		if ans.repeatOf >= 0 {
			fails = append(fails, checkServeAnswer(ans, s.first[ans.repeatOf].stable)...)
		} else {
			fresh = append(fresh, ans)
		}
	}
	refs := make([][]byte, len(fresh))
	errs := make([]error, len(fresh))
	scenario.Grid(len(fresh), s.e.nproc, func(i int) error {
		refs[i], errs[i] = reference(fresh[i].spec, 1)
		return nil
	})
	for i, ans := range fresh {
		if errs[i] != nil {
			fails = append(fails, fmt.Sprintf("%s: reference: %v", ans.spec.label, errs[i]))
			continue
		}
		fails = append(fails, checkServeAnswer(ans, refs[i])...)
	}
	// Repeats must not have simulated: the server's compute count equals
	// the warm-up pool plus the new specs, exactly.
	m, err := s.scrape()
	if err != nil {
		return append(fails, "scrape /metrics: "+err.Error())
	}
	if got, want := m["sempe_serve_computes_total"], float64(servePool+len(fresh)); got != want {
		fails = append(fails, fmt.Sprintf("server computed %g runs, want %g (pool + new specs)", got, want))
	}
	return fails
}

func (s *serveWorkload) selftest(recs []opRecord) map[string]bool {
	out := map[string]bool{}
	for _, r := range recs {
		if r.round != 0 || r.err != nil {
			continue
		}
		ans := r.res.value.(serveAnswer)
		if ans.repeatOf >= 0 {
			bad := ans
			bad.cached = false
			out["serve repeat recomputed"] = len(checkServeAnswer(bad, s.first[ans.repeatOf].stable)) > 0
			continue
		}
		bad := ans
		bad.stable = bytes.Replace(ans.stable, []byte(`"int":`), []byte(`"int":1`), 1)
		out["serve altered row"] = len(checkServeAnswer(bad, ans.stable)) > 0
	}
	return out
}

// scrape reads the front end's Prometheus exposition into name -> value
// (label-free series only).
func (s *serveWorkload) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.front + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// ---------------------------------------------------------- layer metrics

func (s *serveWorkload) snapshot() counters {
	c := counters{}
	if m, err := s.scrape(); err == nil {
		for _, k := range []string{"sempe_serve_cache_hits_total", "sempe_serve_store_hits_total", "sempe_runs_created_total"} {
			c[k] = m[k]
		}
	}
	sc := s.st.Counters()
	c["store_hits"], c["store_misses"], c["store_puts"] = float64(sc.Hits), float64(sc.Misses), float64(sc.Puts)
	return c
}

func (s *serveWorkload) layerMetrics(recs []opRecord, before, after counters, _ float64) map[string]float64 {
	d := func(k string) float64 { return after[k] - before[k] }
	m := map[string]float64{}
	ops := float64(len(recs))
	if t := d("store_hits") + d("store_misses"); t > 0 {
		m["store.get_hit_frac"] = d("store_hits") / t
	}
	if ops > 0 {
		m["store.puts_per_op"] = d("store_puts") / ops
	}
	if runs := d("sempe_runs_created_total"); runs > 0 {
		m["serve.cache_hit_frac"] = (d("sempe_serve_cache_hits_total") + d("sempe_serve_store_hits_total")) / runs
	}
	var dispatch, queue []float64
	retries, over, computed := 0, 0.0, 0
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		ans := r.res.value.(serveAnswer)
		var created, running int64 = -1, -1
		for _, ev := range ans.journal {
			switch {
			case ev.Name == "dispatch" && ev.Phase == "end":
				dispatch = append(dispatch, float64(ev.DurUS)/1000)
			case ev.Name == "retry":
				retries++
			case ev.Name == "created":
				created = ev.AtMicros
			case ev.Name == "running":
				running = ev.AtMicros
			}
		}
		if created >= 0 && running >= 0 {
			queue = append(queue, float64(running-created)/1000)
		}
		if !ans.cached {
			over += r.ms - ans.elapsedMS
			computed++
		}
	}
	sort.Float64s(dispatch)
	sort.Float64s(queue)
	m["cluster.dispatch_ms_p50"] = quantile(dispatch, 0.5)
	m["cluster.retries"] = float64(retries)
	m["serve.queue_ms_p50"] = quantile(queue, 0.5)
	if computed > 0 {
		m["scenario.overhead_ms_per_op"] = over / float64(computed)
	}
	return m
}
