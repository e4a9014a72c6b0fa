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
// GET computes (miss), an identical warm GET serves byte-identical
// output with zero simulations executed (hit), and a conditional
// re-fetch against the returned ETag costs a 304 with no body.
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
// path (the Result emitters on a local Runner).
func TestServeAllKindsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("seven full kinds")
	}
	cache := newDiskCache(t)
	srv := NewServer(cache, WithRegistry(obs.NewRegistry()), WithWorkers(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, kind := range sweep.Kinds() {
		runner := sweep.Runner{Workers: 4, Cache: cache, Obs: obs.NewRegistry()}
		res, _, err := runner.Run(testJob(kind))
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
			resp, got := get(t, u, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %s\n%s", kind, format, resp.Status, got)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Errorf("%s %s: HTTP bytes differ from CLI emitter\nhttp:\n%s\ncli:\n%s",
					kind, format, got, wantBytes)
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
