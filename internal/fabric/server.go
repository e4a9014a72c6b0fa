// Package fabric is the sweep service layer behind `sweep serve`: it
// answers figure and table requests over HTTP from the point cache,
// computing on miss exactly once however many clients ask concurrently.
//
// The package follows the source paper's thesis at service scale:
// polling and retrying are the enemies of scale. Concurrent identical
// requests collapse into one computation with wake-on-ready followers
// (singleflight, no retry loop); warm traffic is answered from rendered
// bodies kept in memory under their ETag, without touching the
// simulator or the disk cache; and conditional requests (If-None-Match
// against cache-key-derived ETags) don't even transfer the body.
//
// Routes: GET /v1/kind/{name} answers any registered scenario in
// json/csv/table form, GET /v1/kinds lists them, and /healthz and
// /metricz report liveness and the obs registry.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Server is the sweep service node: it answers figure/table requests
// over HTTP from its point cache, computing on miss once per distinct
// job however many clients ask concurrently.
type Server struct {
	cache   *sweep.Cache
	workers int // local compute pool width; <= 0 selects GOMAXPROCS
	reg     *obs.Registry
	logf    func(format string, args ...any)

	flights flightGroup
	memo    bodyMemo
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithWorkers sets the local compute pool width.
func WithWorkers(n int) ServerOption { return func(s *Server) { s.workers = n } }

// WithRegistry scopes the server's fabric.* and sweep.* counters.
func WithRegistry(reg *obs.Registry) ServerOption { return func(s *Server) { s.reg = reg } }

// WithLog sets the server's logger (Printf-shaped). Default: silent.
func WithLog(f func(format string, args ...any)) ServerOption { return func(s *Server) { s.logf = f } }

// NewServer builds a service node over cache (nil serves compute-only,
// with no cross-request memoization beyond singleflight).
func NewServer(cache *sweep.Cache, opts ...ServerOption) *Server {
	s := &Server{cache: cache, memo: bodyMemo{limit: memoLimit}}
	for _, o := range opts {
		o(s)
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	return s
}

func (s *Server) obs() *obs.Registry {
	if s.reg != nil {
		return s.reg
	}
	return obs.Default()
}

// Handler returns the node's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	mux.HandleFunc("GET /v1/kind/{name}", s.handleKind)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.obs().Snapshot())
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sweep.Names())
}

// jobFromQuery maps GET /v1/kind/{name} query parameters onto a Job:
// topo, bins, warmup, measure, matn, cores, grid (the -grid flag
// syntax), params (the -params flag syntax) and format (json|csv|table,
// default json). Validation beyond syntax is Normalize's job.
func jobFromQuery(r *http.Request) (sweep.Job, string, error) {
	q := r.URL.Query()
	j := sweep.Job{Kind: sweep.Kind(r.PathValue("name")), Topo: q.Get("topo")}
	var err error
	if j.Bins, err = sweep.ParseBins(q.Get("bins")); err != nil {
		return j, "", err
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"warmup", &j.Warmup}, {"measure", &j.Measure}, {"matn", &j.MatN}, {"cores", &j.Cores}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return j, "", fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	grid, err := sweep.ParseGrid(q.Get("grid"))
	if err != nil {
		return j, "", err
	}
	if !grid.IsZero() {
		grid.Apply(&j)
	}
	if j.Params, err = sweep.ParseParams(q.Get("params")); err != nil {
		return j, "", err
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "table":
	default:
		return j, "", fmt.Errorf("bad format %q (want json, csv or table)", format)
	}
	return j, format, nil
}

// jobIdentity hashes a normalized job together with the binary
// fingerprint — the same inputs the point cache keys on, lifted to whole
// jobs. Empty when the binary has no fingerprint (identity across
// processes is then unknowable, so no ETag is issued).
func jobIdentity(norm sweep.Job) string {
	fp := sweep.Fingerprint()
	if fp == "" {
		return ""
	}
	spec, err := json.Marshal(norm)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256([]byte(fp + "|" + string(spec)))
	return hex.EncodeToString(sum[:])
}

// etagMatches implements If-None-Match: a comma-separated list of
// entity tags, or "*". Weak-validator prefixes are accepted — byte
// identity is exactly what the job-identity ETag asserts.
func etagMatches(header, etag string) bool {
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
		if tok == "*" || tok == etag {
			return true
		}
	}
	return false
}

// flightOutcome is what one singleflight execution hands every caller.
type flightOutcome struct {
	res      *sweep.Result
	executed int  // points not served by the cache
	memoize  bool // a server cache and a key for every point: bodies may be kept
}

func (s *Server) handleKind(w http.ResponseWriter, r *http.Request) {
	reg := s.obs()
	reg.Counter("fabric.requests").Inc()
	job, format, err := jobFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	norm, err := job.Normalize()
	if err != nil {
		http.Error(w, strings.TrimPrefix(err.Error(), "sweep: "), http.StatusBadRequest)
		return
	}
	id := jobIdentity(norm)
	etag := ""
	if id != "" {
		// The ETag derives from the same identity the cache keys on:
		// binary fingerprint + normalized job, suffixed per format since
		// each format serves different bytes.
		etag = `"` + id[:32] + "-" + format + `"`
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
			reg.Counter("fabric.not_modified").Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if body, ok := s.memo.get(etag); ok {
			reg.Counter("fabric.hits").Inc()
			s.writeBody(w, norm.Kind, body, format)
			return
		}
	}

	// Coalesce identical concurrent jobs regardless of requested format
	// — compute once, render per caller. The flight key falls back to
	// the normalized spec when no fingerprint-based identity exists
	// (coalescing is in-process, it needs no cross-binary identity).
	flightKey := id
	if flightKey == "" {
		spec, _ := json.Marshal(norm)
		flightKey = string(spec)
	}
	v, err, shared := s.flights.do(flightKey, func() (any, error) {
		return s.compute(norm)
	})
	if shared {
		reg.Counter("fabric.coalesced").Inc()
	}
	if err != nil {
		reg.Counter("fabric.errors").Inc()
		s.logf("fabric: %s: %v", norm.Kind, err)
		http.Error(w, strings.TrimPrefix(err.Error(), "sweep: "), http.StatusInternalServerError)
		return
	}
	out := v.(*flightOutcome)
	if !shared {
		if out.executed == 0 {
			reg.Counter("fabric.hits").Inc()
		} else {
			reg.Counter("fabric.misses").Inc()
		}
	}
	body, err := render(out.res, format)
	if err != nil {
		reg.Counter("fabric.errors").Inc()
		s.logf("fabric: render %s: %v", norm.Kind, err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if out.memoize && etag != "" {
		s.memo.put(etag, body)
	}
	s.writeBody(w, norm.Kind, body, format)
}

// render produces a result's body in format, byte-identical to the CLI
// emitters (same JSON/CSV/Table methods).
func render(res *sweep.Result, format string) ([]byte, error) {
	switch format {
	case "csv":
		return []byte(res.CSV()), nil
	case "table":
		return []byte(res.Table().String()), nil
	default:
		return res.JSON()
	}
}

// writeBody answers with a rendered body and its format's Content-Type.
func (s *Server) writeBody(w http.ResponseWriter, kind sweep.Kind, body []byte, format string) {
	ctype := "application/json"
	switch format {
	case "csv":
		ctype = "text/csv; charset=utf-8"
	case "table":
		ctype = "text/plain; charset=utf-8"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.obs().Counter("fabric.errors").Inc()
		s.logf("fabric: write %s: %v", kind, err)
	}
}

// compute produces a job's result through the in-process pool. Its
// bodies may be memoized only when the server has a point cache and
// every point has a cache key: exactly the jobs the disk cache could
// answer warm anyway. A -cache off server stays compute-only.
func (s *Server) compute(norm sweep.Job) (*flightOutcome, error) {
	runner := sweep.Runner{Workers: s.workers, Cache: s.cache, Obs: s.reg}
	res, st, err := runner.Run(norm)
	if err != nil {
		return nil, err
	}
	return &flightOutcome{res: res, executed: st.Executed,
		memoize: s.cache != nil && st.Uncacheable == 0}, nil
}
