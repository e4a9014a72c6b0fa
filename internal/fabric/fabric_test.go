package fabric

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Reduced windows keep every test on the 16-core topology fast while
// still running real simulations (mirrors the sweep package's own
// suite).
const (
	testWarmup  = 300
	testMeasure = 1500
)

// testQuery builds the /v1/kind query for a kind at test scale.
func testQuery(kind sweep.Kind) url.Values {
	q := url.Values{}
	q.Set("topo", "small")
	q.Set("warmup", "300")
	q.Set("measure", "1500")
	switch kind {
	case sweep.Fig3, sweep.Fig4:
		q.Set("bins", "1,4")
	case sweep.Fig5:
		q.Set("bins", "1")
		q.Set("matn", "16")
	}
	return q
}

// testJob is the local-runner equivalent of testQuery.
func testJob(kind sweep.Kind) sweep.Job {
	j := sweep.Job{Kind: kind, Topo: "small", Warmup: testWarmup, Measure: testMeasure}
	switch kind {
	case sweep.Fig3, sweep.Fig4:
		j.Bins = []int{1, 4}
	case sweep.Fig5:
		j.Bins = []int{1}
		j.MatN = 16
	}
	return j
}

func newDiskCache(t *testing.T) *sweep.Cache {
	t.Helper()
	c, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func get(t *testing.T, rawURL string, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeColdWarmConditional is the service's core contract: a cold
// GET computes (miss), identical warm GETs serve byte-identical output
// from the memo with no simulation and no point-cache read (hits), and
// a conditional re-fetch against the returned ETag costs a 304 with no
// body.
func TestServeColdWarmConditional(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(newDiskCache(t), WithRegistry(reg), WithWorkers(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	u := ts.URL + "/v1/kind/fig6?" + testQuery(sweep.Fig6).Encode()

	resp, cold := get(t, u, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold GET: %s\n%s", resp.Status, cold)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("cold GET returned no ETag")
	}
	snap := reg.Snapshot()
	if snap.Counter("fabric.misses") != 1 || snap.Counter("fabric.hits") != 0 {
		t.Fatalf("after cold GET: misses=%d hits=%d, want 1/0",
			snap.Counter("fabric.misses"), snap.Counter("fabric.hits"))
	}
	executedCold := snap.Counter("sweep.points.executed")
	if executedCold == 0 {
		t.Fatal("cold GET executed no simulations")
	}

	resp, warm := get(t, u, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm GET: %s", resp.Status)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm GET bytes differ from cold GET")
	}
	snap = reg.Snapshot()
	if got := snap.Counter("sweep.points.executed"); got != executedCold {
		t.Fatalf("warm GET executed %d simulations, want 0", got-executedCold)
	}
	if snap.Counter("fabric.hits") != 1 {
		t.Fatalf("after warm GET: hits=%d, want 1", snap.Counter("fabric.hits"))
	}
	cacheHits := snap.Counter("sweep.cache.hits")

	resp, warm = get(t, u, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(cold, warm) {
		t.Fatalf("second warm GET: %s, bytes equal %t", resp.Status, bytes.Equal(cold, warm))
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("second warm GET Content-Type %q", got)
	}
	snap = reg.Snapshot()
	if got := snap.Counter("sweep.cache.hits"); got != cacheHits {
		t.Fatalf("second warm GET read %d cache entries, want 0", got-cacheHits)
	}
	if got := snap.Counter("sweep.points.executed"); got != executedCold {
		t.Fatalf("second warm GET executed %d simulations, want 0", got-executedCold)
	}
	if snap.Counter("fabric.hits") != 2 {
		t.Fatalf("after second warm GET: hits=%d, want 2", snap.Counter("fabric.hits"))
	}

	resp, body := get(t, u, http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %s, want 304", resp.Status)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if reg.Snapshot().Counter("fabric.not_modified") != 1 {
		t.Fatal("fabric.not_modified not counted")
	}

	// A different format is a different entity: same identity prefix,
	// different ETag, so the json ETag must not 304 a csv request.
	resp, _ = get(t, u+"&format=csv", http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv GET with json ETag: %s, want 200", resp.Status)
	}
}

// TestServeAllKindsByteIdentity pins the acceptance bar: every built-in
// kind served over HTTP in every format is byte-identical to the CLI
// path (the Result emitters on a local Runner), both when rendered and
// when fetched again from the memo.
func TestServeAllKindsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("seven full kinds")
	}
	cache := newDiskCache(t)
	reg := obs.NewRegistry()
	srv := NewServer(cache, WithRegistry(reg), WithWorkers(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, kind := range sweep.Kinds() {
		runner := sweep.Runner{Workers: 4, Cache: cache, Obs: obs.NewRegistry()}
		res, st, err := runner.Run(testJob(kind))
		if err != nil {
			t.Fatalf("%s: local run: %v", kind, err)
		}
		wantJSON, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{
			"json":  wantJSON,
			"csv":   []byte(res.CSV()),
			"table": []byte(res.Table().String()),
		}
		for format, wantBytes := range want {
			u := fmt.Sprintf("%s/v1/kind/%s?%s&format=%s", ts.URL, kind, testQuery(kind).Encode(), format)
			for _, fetch := range []string{"rendered", "memo"} {
				before := reg.Snapshot()
				resp, got := get(t, u, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s %s: %s\n%s", kind, format, fetch, resp.Status, got)
				}
				if !bytes.Equal(got, wantBytes) {
					t.Errorf("%s %s %s: HTTP bytes differ from CLI emitter\nhttp:\n%s\ncli:\n%s",
						kind, format, fetch, got, wantBytes)
				}
				// Jobs with an uncacheable point (table1's model rows)
				// are rendered again instead.
				if d := obs.Diff(before, reg.Snapshot()); fetch == "memo" && st.Uncacheable == 0 &&
					d.Counter("sweep.points.total") != 0 {
					t.Errorf("%s %s: second fetch ran the engine", kind, format)
				}
			}
		}
	}
}

// slowScenario is an uncacheable single-point scenario whose Run sleeps,
// widening the coalescing window and counting executions.
type slowScenario struct {
	runs atomic.Int64
}

func (s *slowScenario) Name() string { return "fabrictest-slow" }
func (s *slowScenario) Normalize(job sweep.Job, topo noc.Topology) (sweep.Job, error) {
	return job, nil
}
func (s *slowScenario) GridAxes() bool { return false }
func (s *slowScenario) Curves(topo noc.Topology, job sweep.Job) ([]sweep.Curve, error) {
	return []sweep.Curve{{
		Name:      "slow",
		NumPoints: 1,
		Run: func(g sweep.GridCoord, pt int) sweep.Point {
			s.runs.Add(1)
			time.Sleep(500 * time.Millisecond)
			return sweep.Point{X: 1, Throughput: 42}
		},
	}}, nil
}

var slowSc = func() *slowScenario {
	s := &slowScenario{}
	sweep.MustRegister(s)
	return s
}()

// TestServeCoalescing is the singleflight contract: N concurrent
// identical cold requests perform exactly one computation; the joiners
// count under fabric.coalesced and return the same bytes.
func TestServeCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(newDiskCache(t), WithRegistry(reg), WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	slowSc.runs.Store(0)

	const n = 4
	u := ts.URL + "/v1/kind/" + slowSc.Name() + "?topo=small"
	start := make(chan struct{})
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, body := get(t, u, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %s", i, resp.Status)
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()
	if got := slowSc.runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran the scenario %d times, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("coalesced response %d differs from leader's", i)
		}
	}
	if got := reg.Snapshot().Counter("fabric.coalesced"); got != n-1 {
		t.Fatalf("fabric.coalesced = %d, want %d", got, n-1)
	}
}

// TestServeUncacheableRecomputes pins the memo's first condition: a job
// with a point that has no cache key is never memoized, so sequential
// requests run the scenario each time.
func TestServeUncacheableRecomputes(t *testing.T) {
	srv := NewServer(newDiskCache(t), WithRegistry(obs.NewRegistry()), WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	slowSc.runs.Store(0)
	u := ts.URL + "/v1/kind/" + slowSc.Name() + "?topo=small"
	for i := 0; i < 2; i++ {
		if resp, body := get(t, u, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %s\n%s", i, resp.Status, body)
		}
	}
	if got := slowSc.runs.Load(); got != 2 {
		t.Fatalf("2 sequential requests ran the uncacheable scenario %d times, want 2", got)
	}
}

// TestServeNoCacheNoMemo pins the memo's second condition: a server
// without a point cache stays compute-only, so a repeated request
// simulates again.
func TestServeNoCacheNoMemo(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(nil, WithRegistry(reg), WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := testQuery(sweep.Fig3)
	q.Set("bins", "1")
	u := ts.URL + "/v1/kind/fig3?" + q.Encode()
	_, first := get(t, u, nil)
	executed := reg.Snapshot().Counter("sweep.points.executed")
	if executed == 0 {
		t.Fatal("first request executed no simulations")
	}
	resp, second := get(t, u, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("second request: %s, bytes equal %t", resp.Status, bytes.Equal(first, second))
	}
	snap := reg.Snapshot()
	if got := snap.Counter("sweep.points.executed"); got != 2*executed {
		t.Fatalf("executed %d simulations over 2 requests, want %d", got, 2*executed)
	}
	if snap.Counter("fabric.hits") != 0 || snap.Counter("fabric.misses") != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", snap.Counter("fabric.hits"), snap.Counter("fabric.misses"))
	}
	if _, ok := srv.memo.get(resp.Header.Get("ETag")); ok || srv.memo.bytes != 0 {
		t.Fatalf("compute-only server memoized %d bytes", srv.memo.bytes)
	}
}

// TestBodyMemoBound pins the memo's byte cap: inserts past it drop the
// oldest bodies first, the total never exceeds the cap, and a body
// larger than the cap is not kept.
func TestBodyMemoBound(t *testing.T) {
	m := bodyMemo{limit: 100}
	for i := 0; i < 20; i++ {
		m.put(fmt.Sprint(i), bytes.Repeat([]byte{'x'}, 10+i%7))
		m.put(fmt.Sprint(i), []byte("duplicate keeps the first body"))
		total := 0
		for _, b := range m.m {
			total += len(b)
		}
		if m.bytes != total || m.bytes > m.limit || len(m.order) != len(m.m) {
			t.Fatalf("after %d puts: bytes %d, bodies sum %d, %d keys for %d bodies, limit %d",
				i+1, m.bytes, total, len(m.order), len(m.m), m.limit)
		}
	}
	if _, ok := m.get("0"); ok {
		t.Fatal("oldest body survived filling past the cap")
	}
	if b, ok := m.get("19"); !ok || len(b) != 10+19%7 {
		t.Fatalf("newest body: %q, %t", b, ok)
	}
	m.put("big", make([]byte, 101))
	if _, ok := m.get("big"); ok {
		t.Fatal("a body larger than the cap was kept")
	}
}

// TestBodyMemoConcurrent drives one memo from several goroutines with
// evictions in flight (run under -race): every hit returns the body
// stored under its key, and the accounting still holds afterwards.
func TestBodyMemoConcurrent(t *testing.T) {
	m := bodyMemo{limit: 64}
	body := func(k int) []byte { return bytes.Repeat([]byte{byte('a' + k%26)}, 1+k%9) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (i*7 + g) % 40
				m.put(fmt.Sprint(k), body(k))
				if b, ok := m.get(fmt.Sprint((k + 3) % 40)); ok && !bytes.Equal(b, body((k+3)%40)) {
					t.Errorf("key %d: got %q", (k+3)%40, b)
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, b := range m.m {
		total += len(b)
	}
	if m.bytes != total || m.bytes > m.limit || len(m.order) != len(m.m) {
		t.Fatalf("bytes %d, bodies sum %d, %d keys for %d bodies, limit %d",
			m.bytes, total, len(m.order), len(m.m), m.limit)
	}
}

// TestServeReadOnlyRoutes pins the service's read-only
// surface: the cache can only be filled by the server's own
// computations, so no route accepts a point from a client, exposes raw
// entries, or hands out work.
func TestServeReadOnlyRoutes(t *testing.T) {
	cache := newDiskCache(t)
	srv := NewServer(cache, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	entry := `{"key":"k","point":{"x":1,"throughput":9}}`
	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodPut, "/v1/cache", entry},
		{http.MethodGet, "/v1/cache?key=k", ""},
		{http.MethodPost, "/v1/work/lease", `{"worker":"w"}`},
		{http.MethodPost, "/v1/work/complete", `{"leaseId":"l","done":[0]}`},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("%s %s: %s, want a 4xx refusal", tc.method, tc.path, resp.Status)
		}
	}
	if _, ok := cache.Get("k"); ok {
		t.Fatal("a client request stored a point in the cache")
	}
	st, err := cache.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 {
		t.Fatalf("cache gained %d entries from client requests", st.Entries)
	}
}

// TestSingleflight pins the flight group's basics: concurrent callers
// of one key share a single execution, and completed flights are
// forgotten (a later call runs again).
func TestSingleflight(t *testing.T) {
	var g flightGroup
	var runs, entered, sharedCount atomic.Int64
	release := make(chan struct{})
	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			v, err, shared := g.do("k", func() (any, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("do = %v, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Hold the leader until every caller is at (or in) do, so all five
	// overlap one execution.
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("shared callers = %d, want %d", sharedCount.Load(), n-1)
	}

	// Forgotten after completion: a fresh call runs fn again.
	g.do("k", func() (any, error) { runs.Add(1); return nil, nil })
	if runs.Load() != 2 {
		t.Fatal("completed flight was not forgotten")
	}
}

// TestJobFromQueryValidation pins the HTTP surface's 400 paths.
func TestJobFromQueryValidation(t *testing.T) {
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		url  string
		want string
	}{
		{"/v1/kind/nosuchkind", "unknown kind"},
		{"/v1/kind/fig6?warmup=abc", "bad warmup"},
		{"/v1/kind/fig6?format=xml", "bad format"},
		{"/v1/kind/fig6?grid=bogus", "bad grid clause"},
		{"/v1/kind/fig3?bins=0", "bad bin count"},
		// Inputs too large for the simulated or the host memory are
		// refused before any point runs.
		{"/v1/kind/fig5?topo=small&matn=1000&bins=1", "does not fit"},
		{"/v1/kind/fig3?topo=small&bins=1&grid=colibriq%3D17", "bad grid colibriq 17"},
		// Histogram bins past the memory used to panic a pool worker and
		// take the server down.
		{"/v1/kind/fig3?topo=small&bins=1048576&warmup=2000&measure=100", "does not fit"},
		{"/v1/kind/fig4?topo=small&bins=1048576&warmup=2000&measure=100", "does not fit"},
	} {
		resp, body := get(t, ts.URL+tc.url, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", tc.url, resp.Status)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q missing %q", tc.url, body, tc.want)
		}
	}
	if resp, _ := get(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after refused requests: %s", resp.Status)
	}
}
