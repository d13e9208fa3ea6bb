package serve

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// sampleLine matches one Prometheus text-exposition sample:
// name{labels} value, the labels being optional.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|-?[0-9][0-9eE.+-]*)$`)

// scrape fetches url and parses the exposition into samples keyed by the
// full sample name (labels included), validating every line on the way.
func scrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, body
}

// onePointBody is a single-point fig10a run, the cheapest real sweep.
const onePointBody = `{"scenario": "fig10a", "spec": {"params": {"kinds": "fibonacci", "ws": "1", "iters": "2"}}, "wait": true}`

// gateHandler is a slog handler that holds every "run finished" record
// until the test sends on gate, pinning the run's goroutine just past the
// point where it publishes completion.
type gateHandler struct{ gate chan struct{} }

func (h gateHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h gateHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h gateHandler) WithGroup(string) slog.Handler            { return h }
func (h gateHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "run finished" {
		<-h.gate
	}
	return nil
}

// TestSemaphoreFreedBeforeWaitedRunReturns: a wait=true run answers only
// after its simulation slot is free again, so occupancy reads 0 the moment
// each of several back-to-back computed runs returns — even while the run's
// goroutine is still held in its post-completion logging.
func TestSemaphoreFreedBeforeWaitedRunReturns(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Options{MaxWorkers: 2, MaxConcurrentRuns: 2, CacheEntries: 8,
		Logger: slog.New(gateHandler{gate})})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(gate) })
	for iters := 1; iters <= 4; iters++ {
		body := `{"scenario": "fig10a", "spec": {"params": {"kinds": "fibonacci", "ws": "1", "iters": "` +
			strconv.Itoa(iters) + `"}}, "wait": true}`
		if view, code := postRun(t, ts, body); code != http.StatusOK || view.Status != "done" || view.Cached {
			t.Fatalf("POST /runs iters=%d = %d, status %q, cached %t; want a computed run", iters, code, view.Status, view.Cached)
		}
		if n := len(srv.sem); n != 0 {
			t.Fatalf("iters=%d: %d simulation slots still held after the waited run returned", iters, n)
		}
		samples, _ := scrape(t, ts.URL+"/metrics")
		if occ := samples["sempe_sim_semaphore_occupancy"]; occ != 0 {
			t.Fatalf("iters=%d: sempe_sim_semaphore_occupancy = %v, want 0", iters, occ)
		}
		gate <- struct{}{} // let this run's goroutine finish
	}
}

// TestMetricsExposition pins the families and values GET /metrics reports
// after a known request sequence: one computed run, one LRU cache hit.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)

	if code := getJSON(t, ts.URL+"/scenarios", nil); code != http.StatusOK {
		t.Fatalf("GET /scenarios = %d", code)
	}
	for i := 0; i < 2; i++ {
		if view, code := postRun(t, ts, onePointBody); code != http.StatusOK || view.Status != "done" {
			t.Fatalf("POST /runs #%d = %d, status %q", i, code, view.Status)
		}
	}

	samples, body := scrape(t, ts.URL+"/metrics")

	// Every family must carry both exposition headers.
	for _, fam := range []string{
		"sempe_http_requests_total", "sempe_http_request_seconds",
		"sempe_runs_created_total", "sempe_runs_finished_total",
		"sempe_serve_cache_hits_total", "sempe_serve_store_hits_total",
		"sempe_serve_computes_total", "sempe_runs",
		"sempe_sim_semaphore_occupancy", "sempe_sim_semaphore_capacity",
	} {
		for _, header := range []string{"# HELP ", "# TYPE "} {
			if !strings.Contains(body, header+fam+" ") {
				t.Errorf("exposition missing %s%s", header, fam)
			}
		}
	}

	want := map[string]float64{
		`sempe_runs_created_total`:                                                  2,
		`sempe_serve_computes_total`:                                                1,
		`sempe_serve_cache_hits_total`:                                              1,
		`sempe_serve_store_hits_total`:                                              0,
		`sempe_runs_finished_total{status="done"}`:                                  2,
		`sempe_runs{status="done"}`:                                                 2,
		`sempe_runs{status="running"}`:                                              0,
		`sempe_sim_semaphore_occupancy`:                                             0,
		`sempe_sim_semaphore_capacity`:                                              2,
		`sempe_http_requests_total{route="POST /runs",method="POST",code="200"}`:    2,
		`sempe_http_requests_total{route="GET /scenarios",method="GET",code="200"}`: 1,
		`sempe_http_request_seconds_count{route="POST /runs"}`:                      2,
	}
	for name, v := range want {
		if got, ok := samples[name]; !ok || got != v {
			t.Errorf("%s = %v (present %t), want %v", name, got, ok, v)
		}
	}
	if sum := samples[`sempe_http_request_seconds_sum{route="POST /runs"}`]; sum <= 0 {
		t.Errorf("request-latency sum for POST /runs = %v, want > 0", sum)
	}
	if inf := samples[`sempe_http_request_seconds_bucket{route="POST /runs",le="+Inf"}`]; inf != 2 {
		t.Errorf("+Inf latency bucket for POST /runs = %v, want 2", inf)
	}
}

// TestMetricsConcurrentScrape exercises /metrics under concurrent load for
// the race detector: scrapes race run creation, polls, and each other.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	get := func(path string) { // goroutine-safe: t.Error, never t.Fatal
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				get("/metrics")
			}
		}()
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(onePointBody))
			if err != nil {
				t.Error(err)
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			get("/runs")
		}()
	}
	wg.Wait()
	samples, _ := scrape(t, ts.URL+"/metrics")
	if got := samples[`sempe_runs_created_total`]; got != 4 {
		t.Fatalf("sempe_runs_created_total = %v, want 4", got)
	}
}

// TestRunEventsEndpoint: a local run's journal streams over GET
// /runs/{id}/events with the engine's sweep and point spans in order.
func TestRunEventsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	view, code := postRun(t, ts, onePointBody)
	if code != http.StatusOK || view.Status != "done" {
		t.Fatalf("POST /runs = %d, status %q", code, view.Status)
	}

	var ev eventsView
	if code := getJSON(t, ts.URL+"/runs/"+view.ID+"/events", &ev); code != http.StatusOK {
		t.Fatalf("GET /runs/%s/events = %d", view.ID, code)
	}
	if ev.ID != view.ID || ev.Status != "done" || ev.Count != len(ev.Events) {
		t.Fatalf("events view = %+v", ev)
	}
	counts := map[string]int{}
	for i, e := range ev.Events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d, want dense ordering", i, e.Seq)
		}
		counts[e.Name+"/"+e.Phase]++
	}
	for _, want := range []string{
		"created/", "running/", "sweep/begin", "sweep/end",
		"point/begin", "point/end", "done/",
	} {
		if counts[want] == 0 {
			t.Errorf("journal missing %q event; got %v", want, counts)
		}
	}
	if got := counts["point/begin"]; got != 1 {
		t.Errorf("point begin spans = %d, want 1 (single-point grid)", got)
	}

	if code := getJSON(t, ts.URL+"/runs/nope/events", nil); code != http.StatusNotFound {
		t.Fatalf("GET /runs/nope/events = %d, want 404", code)
	}
}

// TestPprofOptIn: the profile endpoints exist only behind EnablePprof.
func TestPprofOptIn(t *testing.T) {
	_, plain := newTestServer(t)
	if code := getJSON(t, plain.URL+"/debug/pprof/cmdline", nil); code != http.StatusNotFound {
		t.Fatalf("pprof without opt-in = %d, want 404", code)
	}
	srv := New(Options{MaxWorkers: 2, EnablePprof: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/debug/pprof/cmdline", nil); code != http.StatusOK {
		t.Fatalf("pprof with opt-in = %d, want 200", code)
	}
}

// TestDistributedRunThroughServe: a server fronting two workers dispatches
// a shardable run through the cluster coordinator. The run must match a
// serial engine run byte-for-byte, carry the provenance report with
// per-shard and per-worker stats, and stream the coordinator's
// dispatch/merge spans on the events endpoint.
func TestDistributedRunThroughServe(t *testing.T) {
	w1 := httptest.NewServer(New(Options{MaxWorkers: 2, Worker: true}).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(New(Options{MaxWorkers: 2, Worker: true}).Handler())
	defer w2.Close()

	front := New(Options{
		MaxWorkers:       2,
		ClusterWorkers:   []string{w1.URL, w2.URL},
		ClusterShardSize: 1, // every point crosses the wire
	})
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	body := `{"scenario": "fig10a", "spec": {"params": {"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}}, "wait": true}`
	view, code := postRun(t, ts, body)
	if code != http.StatusOK || view.Status != "done" {
		t.Fatalf("POST /runs = %d, status %q (err %q)", code, view.Status, view.Error)
	}

	// Byte-identical to the serial engine: the front end is a pure
	// transport.
	sc, _ := scenario.Lookup("fig10a")
	serial, err := scenario.Run(sc, view.Spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableString(t, view.Result), stableString(t, serial); got != want {
		t.Fatalf("distributed stable JSON differs from serial run:\n%s\nvs\n%s", got, want)
	}

	rep := view.Report
	if rep == nil {
		t.Fatal("distributed run has no cluster report")
	}
	if rep.Shards != 4 || rep.Points != 4 || rep.Retries != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Events) != 0 {
		t.Fatalf("run view embeds %d journal events; the events endpoint owns them", len(rep.Events))
	}
	if len(rep.ShardStats) != 4 {
		t.Fatalf("ShardStats = %+v, want 4 entries", rep.ShardStats)
	}
	for _, ss := range rep.ShardStats {
		if ss.Attempts != 1 || ss.Points != 1 || ss.Millis <= 0 {
			t.Errorf("shard stat %+v: want 1 attempt, 1 point, positive duration", ss)
		}
		if ss.Worker != w1.URL && ss.Worker != w2.URL {
			t.Errorf("shard stat %+v: unknown worker", ss)
		}
	}
	if len(rep.WorkerStats) != 2 {
		t.Fatalf("WorkerStats = %+v, want 2 entries", rep.WorkerStats)
	}
	points := 0
	for _, ws := range rep.WorkerStats {
		if !ws.Healthy || ws.Dropped || ws.Failures != 0 {
			t.Errorf("worker stat %+v: want healthy, not dropped, no failures", ws)
		}
		if ws.Points > 0 && ws.PointsPerSec <= 0 {
			t.Errorf("worker stat %+v: busy worker with no throughput", ws)
		}
		points += ws.Points
	}
	if points != 4 {
		t.Errorf("worker stats account for %d points, want 4", points)
	}

	// The coordinator journaled into the run's journal: per-shard dispatch
	// and merge spans are on the events endpoint.
	var ev eventsView
	if code := getJSON(t, ts.URL+"/runs/"+view.ID+"/events", &ev); code != http.StatusOK {
		t.Fatalf("GET /runs/%s/events = %d", view.ID, code)
	}
	counts := map[string]int{}
	for _, e := range ev.Events {
		counts[e.Name+"/"+e.Phase]++
	}
	for name, want := range map[string]int{
		"cluster_sweep/begin": 1, "cluster_sweep/end": 1,
		"probe/begin": 1, "probe/end": 1,
		"dispatch/begin": 4, "dispatch/end": 4,
		"merge/begin": 4, "merge/end": 4,
	} {
		if counts[name] != want {
			t.Errorf("journal has %d %q events, want %d (all: %v)", counts[name], name, want, counts)
		}
	}

	// Worker-side metrics: the shard endpoint counted the dispatched work.
	shardReqs, shardPoints := 0.0, 0.0
	for _, w := range []*httptest.Server{w1, w2} {
		samples, _ := scrape(t, w.URL+"/metrics")
		shardReqs += samples["sempe_shard_requests_total"]
		shardPoints += samples["sempe_shard_points_total"]
	}
	if shardReqs != 4 || shardPoints != 4 {
		t.Errorf("worker shard metrics: %v requests / %v points, want 4 / 4", shardReqs, shardPoints)
	}
}

func stableString(t *testing.T, res *scenario.Result) string {
	t.Helper()
	if res == nil {
		t.Fatal("nil result")
	}
	out, err := json.MarshalIndent(res.Stable(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
