package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	steadystate "repro"
	"repro/internal/sweep"
)

// newTestServer starts a Server plus an httptest front end; both are torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts body to url and returns the response with its body read.
func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

// scenarioJSON marshals a small scenario for posting.
func scenarioJSON(t *testing.T, n int) []byte {
	t.Helper()
	data, err := json.Marshal(testScenario(t, n))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeError(t *testing.T, data []byte) *ServiceError {
	t.Helper()
	var body errorBody
	if err := json.Unmarshal(data, &body); err != nil || body.Error == nil {
		t.Fatalf("response is not a structured error: %q (%v)", data, err)
	}
	return body.Error
}

func TestHTTPErrorTable(t *testing.T) {
	// One platform with an unreachable spec for the unsolvable case.
	unsolvable := func() []byte {
		p := steadystate.NewPlatform()
		a := p.AddNode("a", steadystate.R(1, 1))
		b := p.AddNode("b", steadystate.R(1, 1))
		// No link a→b: scatter cannot reach its target.
		data, err := json.Marshal(&steadystate.Scenario{
			Platform: p, Spec: steadystate.ScatterSpec(a, b),
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}()

	_, ts := newTestServer(t, Config{Workers: 2, MaxBodyBytes: 4096})
	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		status int
		code   string
	}{
		{"solve wrong method", http.MethodGet, "/solve", nil, 405, "method_not_allowed"},
		{"sweep wrong method", http.MethodGet, "/sweep", nil, 405, "method_not_allowed"},
		{"healthz wrong method", http.MethodPost, "/healthz", nil, 405, "method_not_allowed"},
		{"metrics wrong method", http.MethodPost, "/metrics", nil, 405, "method_not_allowed"},
		{"malformed json", http.MethodPost, "/solve", []byte(`{"platform":`), 400, "bad_scenario"},
		{"empty object", http.MethodPost, "/solve", []byte(`{}`), 400, "bad_scenario"},
		{"oversized body", http.MethodPost, "/solve", bytes.Repeat([]byte("x"), 8192), 413, "body_too_large"},
		{"bad timeout", http.MethodPost, "/solve?timeout=banana", scenarioJSON(t, 0), 400, "bad_scenario"},
		{"negative timeout", http.MethodPost, "/solve?timeout=-5s", scenarioJSON(t, 0), 400, "bad_scenario"},
		{"instant deadline", http.MethodPost, "/solve?timeout=1ns", scenarioJSON(t, 0), 504, "deadline_exceeded"},
		{"unsolvable spec", http.MethodPost, "/solve", unsolvable, 400, "unsolvable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status: got %d want %d (body %q)", resp.StatusCode, tc.status, data)
			}
			if se := decodeError(t, data); se.Code != tc.code {
				t.Fatalf("code: got %q want %q (body %q)", se.Code, tc.code, data)
			}
		})
	}
}

func TestHTTPCacheHitBitIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := scenarioJSON(t, 1)

	resp1, cold := postJSON(t, ts.URL+"/solve", body)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold solve: %d %q", resp1.StatusCode, cold)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache: got %q want miss", got)
	}
	resp2, hot := postJSON(t, ts.URL+"/solve", body)
	if resp2.StatusCode != 200 {
		t.Fatalf("hot solve: %d %q", resp2.StatusCode, hot)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("hot X-Cache: got %q want hit", got)
	}
	// The cached response serializes the very same Report, so the bytes —
	// including the measured solve_ms — are identical.
	if !bytes.Equal(cold, hot) {
		t.Fatalf("cache hit diverged from cold solve:\ncold: %s\nhot:  %s", cold, hot)
	}
	snap := s.metrics.Snapshot()
	if snap.Solves != 1 || snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("metrics after hot+cold: %+v", snap)
	}

	// The JSON snapshot endpoint reflects the same counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if got.Solves != 1 || got.CacheHits != 1 {
		t.Fatalf("/metrics: %+v", got)
	}
}

func TestHTTPHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz while serving: %d", resp.StatusCode)
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	var hb healthBody
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil || hb.Status != "draining" {
		t.Fatalf("healthz body: %+v %v", hb, err)
	}

	resp2, data := postJSON(t, ts.URL+"/solve", scenarioJSON(t, 0))
	if resp2.StatusCode != 503 {
		t.Fatalf("solve while draining: %d %q", resp2.StatusCode, data)
	}
	if se := decodeError(t, data); se.Code != "draining" {
		t.Fatalf("solve while draining code: %q", se.Code)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestHTTPSweepJSONL(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	var in bytes.Buffer
	in.Write(scenarioJSON(t, 0)) // bare scenario → line-0001
	in.WriteString("\n\n")       // blank line is skipped
	wrapped, err := json.Marshal(sweepLine{Name: "named-one", Scenario: scenarioJSON(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	in.Write(wrapped)
	in.WriteString("\n{\"platform\": broken\n") // malformed → error record

	resp, err := http.Post(ts.URL+"/sweep", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sweep status: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("sweep content type: %q", got)
	}

	recs := map[string]sweep.Record{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record line %q: %v", sc.Text(), err)
		}
		recs[rec.Name] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %v", len(recs), recs)
	}
	if rec := recs["line-0001"]; rec.Error != "" || rec.Report == nil {
		t.Fatalf("bare line record: %+v", rec)
	}
	if rec := recs["named-one"]; rec.Error != "" || rec.Report == nil {
		t.Fatalf("wrapped line record: %+v", rec)
	}
	if rec := recs["line-0003"]; rec.Error == "" || rec.Report != nil {
		t.Fatalf("malformed line record: %+v", rec)
	}
}

// TestHTTPSweepStreamsFullDuplex drives /sweep interactively: send one
// line, read its record back, send the next. After the first flushed
// record the server must keep reading the request body — without full
// duplex, net/http's HTTP/1 server closes the unread body at the first
// response write and every later line is silently dropped (the batch
// truncation regression).
func TestHTTPSweepStreamsFullDuplex(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	pr, pw := io.Pipe()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	type result struct {
		resp *http.Response
		err  error
	}
	respc := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		respc <- result{resp, err}
	}()
	writeLine := func(n int) {
		if _, err := pw.Write(append(scenarioJSON(t, n), '\n')); err != nil {
			t.Fatalf("write line %d: %v", n, err)
		}
	}

	writeLine(0) // Do returns once the first record's headers are flushed
	res := <-respc
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	if res.resp.StatusCode != 200 {
		t.Fatalf("sweep status: %d", res.resp.StatusCode)
	}

	const lines = 6
	br := bufio.NewReader(res.resp.Body)
	for i := 0; i < lines; i++ {
		// Record i is read before line i+1 is sent, so every iteration
		// past the first exercises body reads after response writes.
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		var rec sweep.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %d %q: %v", i, line, err)
		}
		if rec.Error != "" || rec.Report == nil {
			t.Fatalf("record %d is not a solve record: %+v", i, rec)
		}
		if i+1 < lines {
			writeLine(i + 1)
		}
	}
	pw.Close()
	if extra, err := br.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("stream did not end cleanly: %q (err %v)", extra, err)
	}
}

// normalizeReportJSON canonicalizes a Report's JSON for comparison: the
// wall-clock solve_ms measurement is dropped, keys are sorted by the map
// round trip. Everything else must match byte for byte.
func normalizeReportJSON(t *testing.T, data []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("normalize report %q: %v", data, err)
	}
	delete(m, "solve_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestHTTPDeterminismVsSweep is the determinism anchor of the serving
// layer: every corpus scenario served through /solve must produce the same
// Report (modulo the solve_ms measurement) as the batch engine, a repeat
// submission must be a pure cache hit, and a hit must be far cheaper than
// a cold solve. The cost comparison times Server.Solve on a fresh server
// with scenarios decoded beforehand, so what it compares is the cache's
// own effect: the JSON decode and the HTTP round trip, which a hit pays as
// much as a miss, stay out of both passes.
func TestHTTPDeterminismVsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the full testdata corpus three times")
	}
	jobs, err := sweep.LoadDir("../../testdata/sweep", "*.json")
	if err != nil {
		t.Fatal(err)
	}

	// Batch-engine ground truth via the streaming record log.
	var log bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs, sweep.Options{Jobs: 4, JSONL: &log}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(&log)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Error != "" {
			continue
		}
		data, err := json.Marshal(rec.Report)
		if err != nil {
			t.Fatal(err)
		}
		want[rec.Name] = normalizeReportJSON(t, data)
	}
	if len(want) == 0 {
		t.Fatal("sweep produced no successful records")
	}

	s, ts := newTestServer(t, Config{Workers: 4})
	serve := func(pass string) {
		for _, job := range jobs {
			raw, err := os.ReadFile(job.Path)
			if err != nil {
				t.Fatal(err)
			}
			resp, body := postJSON(t, ts.URL+"/solve", raw)
			if job.Err != nil {
				if resp.StatusCode != 400 {
					t.Fatalf("%s %s: malformed corpus file got %d, want 400", pass, job.Name, resp.StatusCode)
				}
				continue
			}
			if resp.StatusCode != 200 {
				t.Fatalf("%s %s: %d %q", pass, job.Name, resp.StatusCode, body)
			}
			if got := normalizeReportJSON(t, body); got != want[job.Name] {
				t.Fatalf("%s %s: served report diverged from sweep\nserve: %s\nsweep: %s",
					pass, job.Name, got, want[job.Name])
			}
			wantCache := "miss"
			if pass == "hot" {
				wantCache = "hit"
			}
			if got := resp.Header.Get("X-Cache"); got != wantCache {
				t.Fatalf("%s %s: X-Cache got %q want %q", pass, job.Name, got, wantCache)
			}
		}
	}
	serve("cold")
	coldSolves := s.metrics.Snapshot().Solves
	serve("hot")

	snap := s.metrics.Snapshot()
	if snap.Solves != coldSolves {
		t.Fatalf("hot pass ran %d extra LP solves", snap.Solves-coldSolves)
	}
	if snap.CacheHits != uint64(len(want)) {
		t.Fatalf("cache hits: got %d want %d", snap.CacheHits, len(want))
	}

	// The same corpus, decoded once, through a fresh server's Solve: a
	// cold pass of misses, then a hot pass of hits, each solve timed alone.
	fresh, _ := newTestServer(t, Config{Workers: 4})
	names := map[*steadystate.Scenario]string{}
	var scenarios []*steadystate.Scenario
	for _, job := range jobs {
		if job.Err != nil {
			continue
		}
		raw, err := os.ReadFile(job.Path)
		if err != nil {
			t.Fatal(err)
		}
		scn := &steadystate.Scenario{}
		if err := json.Unmarshal(raw, scn); err != nil {
			t.Fatal(err)
		}
		names[scn] = job.Name
		scenarios = append(scenarios, scn)
	}
	timed := func(pass string, wantCached bool) []time.Duration {
		var times []time.Duration
		for _, scn := range scenarios {
			start := time.Now()
			rep, cached, err := fresh.Solve(context.Background(), scn, true)
			times = append(times, time.Since(start))
			if err != nil {
				t.Fatalf("%s %s: %v", pass, names[scn], err)
			}
			if cached != wantCached {
				t.Fatalf("%s %s: cached %v, want %v", pass, names[scn], cached, wantCached)
			}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := normalizeReportJSON(t, data); got != want[names[scn]] {
				t.Fatalf("%s %s: solved report diverged from sweep\nsolve: %s\nsweep: %s",
					pass, names[scn], got, want[names[scn]])
			}
		}
		return times
	}
	coldTimes := timed("cold", false)
	hotTimes := timed("hot", true)

	p50 := func(d []time.Duration) time.Duration {
		sorted := append([]time.Duration(nil), d...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[len(sorted)/2]
	}
	coldP50, hotP50 := p50(coldTimes), p50(hotTimes)
	t.Logf("Server.Solve p50 cold %v hot %v over %d scenarios", coldP50, hotP50, len(coldTimes))
	if hotP50 > coldP50 {
		t.Fatalf("cache hits slower than cold solves: hot p50 %v > cold p50 %v", hotP50, coldP50)
	}
	// The ≥10× bound only binds when the cold solves are big enough for
	// wall clocks to be meaningful; tiny corpora are covered by the
	// no-extra-solves check above.
	if coldP50 >= 5*time.Millisecond && hotP50*10 > coldP50 {
		t.Fatalf("cache hit p50 %v not 10x below cold p50 %v", hotP50, coldP50)
	}
}

// TestHTTPRaceStress hammers the daemon from many goroutines with mixed
// scenarios, tiny deadlines and tolerable backpressure; run under -race in
// CI it pins down the locking of queue, caches and metrics.
func TestHTTPRaceStress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	bodies := [][]byte{
		scenarioJSON(t, 0),
		scenarioJSON(t, 1),
		scenarioJSON(t, 2),
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				url := ts.URL + "/solve"
				if (g+i)%4 == 0 {
					url += "?timeout=1ns" // forced 504s mix cancellation in
				}
				resp, err := http.Post(url, "application/json", bytes.NewReader(bodies[(g+i)%len(bodies)]))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case 200, 400, 503, 504:
				default:
					t.Errorf("goroutine %d: unexpected status %d", g, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	// The metrics endpoint stays coherent under load.
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(data), "solverd_solves_total") {
		t.Fatalf("prometheus exposition missing counters:\n%s", data)
	}
}

// TestHTTPSweepMatchesSolve pins the two endpoints to each other: the
// record a /sweep line produces carries the same Report /solve returns.
func TestHTTPSweepMatchesSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := scenarioJSON(t, 2)

	_, solveBody := postJSON(t, ts.URL+"/solve", body)
	resp, err := http.Post(ts.URL+"/sweep", "application/x-ndjson", bytes.NewReader(append(body, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rec sweep.Record
	if err := json.Unmarshal(bytes.TrimSpace(line), &rec); err != nil {
		t.Fatalf("sweep record %q: %v", line, err)
	}
	if rec.Error != "" {
		t.Fatalf("sweep record error: %s", rec.Error)
	}
	recReport, err := json.Marshal(rec.Report)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeReportJSON(t, recReport), normalizeReportJSON(t, solveBody); got != want {
		t.Fatalf("sweep and solve reports diverged:\nsweep: %s\nsolve: %s", got, want)
	}
}

// TestHTTPTracedSolve drives ?trace=1: a traced miss carries the request's
// ID and no replay mark; a traced hit carries its own request's ID, the
// replay mark and the first solve's span tree; the cached Report keeps
// neither mark; an untraced post of the same scenario is a miss without a
// trace, since traced reports cache under their own key; and a traced
// /sweep record carries the sweep request's ID.
func TestHTTPTracedSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := scenarioJSON(t, 1)
	traced := func(wantCache string) (*steadystate.Report, string) {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/solve?trace=1", body)
		if resp.StatusCode != 200 {
			t.Fatalf("traced solve: %d %q", resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache {
			t.Fatalf("traced solve X-Cache: got %q want %q", got, wantCache)
		}
		var rep steadystate.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("decode report: %v", err)
		}
		if rep.Trace == nil || rep.Trace.Root == nil {
			t.Fatalf("traced solve returned no trace: %s", data)
		}
		id := resp.Header.Get("X-Request-ID")
		if id == "" || rep.Trace.ID != id {
			t.Fatalf("trace id %q, X-Request-ID %q", rep.Trace.ID, id)
		}
		return &rep, id
	}
	spans := func(rep *steadystate.Report) string {
		t.Helper()
		data, err := json.Marshal(rep.Trace.WithoutTiming().Root)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	first, firstID := traced("miss")
	if first.Trace.Replayed {
		t.Error("a cold traced solve is marked replayed")
	}
	second, secondID := traced("hit")
	third, thirdID := traced("hit")
	if secondID == firstID || thirdID == secondID {
		t.Errorf("request ids repeat: %s, %s, %s", firstID, secondID, thirdID)
	}
	for _, hit := range []*steadystate.Report{second, third} {
		if !hit.Trace.Replayed {
			t.Error("a traced cache hit is not marked replayed")
		}
		if got, want := spans(hit), spans(first); got != want {
			t.Errorf("replayed span tree differs from the solve's:\nhit:  %s\ncold: %s", got, want)
		}
	}
	cached, hit, err := s.solve(context.Background(), testScenario(t, 1), false, true)
	if err != nil || !hit {
		t.Fatalf("cached traced report: hit %v, err %v", hit, err)
	}
	if cached.Trace.ID != "" || cached.Trace.Replayed {
		t.Errorf("served requests mutated the cached trace: id %q, replayed %v", cached.Trace.ID, cached.Trace.Replayed)
	}

	resp, data := postJSON(t, ts.URL+"/solve", body)
	if got := resp.Header.Get("X-Cache"); resp.StatusCode != 200 || got != "miss" {
		t.Fatalf("untraced solve after traced ones: %d, X-Cache %q", resp.StatusCode, got)
	}
	var plain steadystate.Report
	if err := json.Unmarshal(data, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Errorf("untraced solve carries a trace: %s", data)
	}

	var in bytes.Buffer
	for n, name := range []string{"cached", "fresh"} {
		line, err := json.Marshal(sweepLine{Name: name, Scenario: scenarioJSON(t, 1+2*n)})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(append(line, '\n'))
	}
	sweepResp, err := http.Post(ts.URL+"/sweep?trace=1", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer sweepResp.Body.Close()
	id := sweepResp.Header.Get("X-Request-ID")
	recs := 0
	sc := bufio.NewScanner(sweepResp.Body)
	for sc.Scan() {
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("sweep record %q: %v", sc.Text(), err)
		}
		recs++
		if rec.Report == nil || rec.Report.Trace == nil {
			t.Fatalf("%s: traced sweep record without a trace: %s", rec.Name, sc.Text())
		}
		if tr := rec.Report.Trace; tr.ID != id || tr.Replayed != (rec.Name == "cached") {
			t.Errorf("%s: trace id %q replayed %v, want id %q replayed %v", rec.Name, tr.ID, tr.Replayed, id, rec.Name == "cached")
		}
	}
	if err := sc.Err(); err != nil || recs != 2 {
		t.Fatalf("%d sweep records (%v), want 2", recs, err)
	}
}

// rebuilt copies p with every edge cost multiplied by factor, leaving out
// edge skip (-1: none). Nodes are re-added in ID order, so specs stay
// valid on the copy.
func rebuilt(p *steadystate.Platform, factor steadystate.Rat, skip int) *steadystate.Platform {
	q := steadystate.NewPlatform()
	for _, n := range p.Nodes() {
		if n.Router {
			q.AddRouter(n.Name)
		} else {
			q.AddNode(n.Name, n.Speed)
		}
	}
	for i, e := range p.Edges() {
		if i != skip {
			q.AddEdge(e.From, e.To, new(big.Rat).Mul(e.Cost, factor))
		}
	}
	return q
}

// TestHTTPSharedBasisCache pins the server's one basis cache, which every
// solve is offered: a platform whose edge costs all doubled warm-starts
// from the first solve's basis and still answers a cold solve's
// throughput, and the basis is refused by the structural fingerprint on a
// platform that lost an edge; /metrics counts one of each.
func TestHTTPSharedBasisCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := steadystate.Tiers(steadystate.DefaultTiersConfig(11))
	parts := base.Participants()
	spec := steadystate.ScatterSpec(parts[0], parts[1], parts[2], parts[3])
	solve := func(p *steadystate.Platform) steadystate.Report {
		t.Helper()
		body, err := json.Marshal(&steadystate.Scenario{Platform: p, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/solve", body)
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("solve: %d (X-Cache %q) %q", resp.StatusCode, resp.Header.Get("X-Cache"), data)
		}
		var rep steadystate.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("decode report: %v", err)
		}
		return rep
	}
	warmCounts := func() (uint64, uint64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap MetricsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decode /metrics: %v", err)
		}
		return snap.WarmStarts, snap.WarmRejects
	}

	if rep := solve(base); rep.WarmStart || rep.WarmReject != "" {
		t.Fatalf("first solve: warm_start %v, warm_reject %q; want cold", rep.WarmStart, rep.WarmReject)
	}

	two := big.NewRat(2, 1)
	rep := solve(rebuilt(base, two, -1))
	if !rep.WarmStart {
		t.Errorf("doubled-cost solve not warm-started (warm_reject %q)", rep.WarmReject)
	}
	cold, err := steadystate.Solve(context.Background(), rebuilt(base, two, -1), spec)
	if err != nil {
		t.Fatalf("cold solve of the doubled platform: %v", err)
	}
	if want := cold.Throughput().RatString(); rep.Throughput != want {
		t.Errorf("warm throughput %s, cold %s", rep.Throughput, want)
	}
	if starts, rejects := warmCounts(); starts != 1 || rejects != 0 {
		t.Errorf("/metrics after the warm start: warm_starts %d, warm_rejects %d; want 1, 0", starts, rejects)
	}

	// The first edge whose removal leaves every participant reachable.
	var cut *steadystate.Platform
	for i := range base.Edges() {
		if q := rebuilt(base, big.NewRat(1, 1), i); q.Validate() == nil {
			cut = q
			break
		}
	}
	if cut == nil {
		t.Fatal("no single edge of the seeded Tiers platform is removable")
	}
	if rep := solve(cut); rep.WarmStart || rep.WarmReject != "fingerprint_mismatch" {
		t.Errorf("edge-cut solve: warm_start %v, warm_reject %q; want the fingerprint_mismatch refusal",
			rep.WarmStart, rep.WarmReject)
	}
	if starts, rejects := warmCounts(); starts != 1 || rejects != 1 {
		t.Errorf("/metrics after the refusal: warm_starts %d, warm_rejects %d; want 1, 1", starts, rejects)
	}
}
