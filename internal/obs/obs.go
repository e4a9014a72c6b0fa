// Package obs is the dependency-free observability core of the
// simulator and the sweep engine: a process-wide registry of named
// counters, gauges and timers with atomic hot-path updates, plus a
// deterministic snapshot/diff API that run manifests, the -obs flags
// and the trace exporter report through.
//
// Design rules:
//
//   - Updates are lock-free atomics. Hot paths hold a *Counter (one
//     registry lookup at construction, or none at all: the simulation
//     kernel batches its per-cycle counts in plain per-System fields
//     and publishes totals here on the cold path, see
//     platform.System.PublishObs), so instrumentation never contends
//     on the registry map.
//   - Metrics are cumulative. Per-run values are taken as
//     Diff(before, after) of two snapshots, which is what the sweep
//     runner records in RunStats.Metrics.
//   - Snapshots are deterministic: map-keyed, zero values elided, and
//     the JSON/String renderings sort names, so two identical runs
//     serialize byte-identically (timers carry wall time and are the
//     only inherently run-dependent values).
//
// Naming convention: dotted lowercase paths, subsystem-first —
// "kernel.ff.cycles_saved", "sweep.cache.hits",
// "kernel.policy.<name>.grants". Custom scenarios and policies are
// first-class: register metrics under your own prefix via
// Default().Counter("mypkg.thing") and they flow through every
// manifest and -obs dump like the built-ins.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a level that moves both ways (queue depths, utilization
// percentages, worker counts).
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates duration observations: a count and a running
// total, enough for rates and means without histogram buckets.
type Timer struct {
	count atomic.Uint64
	total atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.count.Add(1)
	t.total.Add(int64(d))
}

// Count returns the number of observations.
func (t *Timer) Count() uint64 { return t.count.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.total.Load()) }

// TimerValue is a Timer's state in a Snapshot.
type TimerValue struct {
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"totalNs"`
}

// Snapshot is a point-in-time copy of a registry's metrics. Zero
// values are elided, so a snapshot taken before any activity is empty
// and diffs stay compact. Maps JSON-encode with sorted keys, making
// the encoding deterministic.
type Snapshot struct {
	Counters map[string]uint64     `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Timers   map[string]TimerValue `json:"timers,omitempty"`
}

// Counter returns the snapshotted value of a counter (zero when
// absent, matching the elision of zero values).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// String renders the snapshot as sorted "name value" lines (the -obs
// dump format): counters and gauges one per line, timers as
// "name count=N total=D".
func (s Snapshot) String() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Timers {
		lines = append(lines, fmt.Sprintf("%s count=%d total=%s",
			name, v.Count, time.Duration(v.TotalNs)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// Diff returns the activity between two snapshots of the same
// registry: counters and timers subtract (entries whose delta is zero
// are elided), while gauges — levels, not rates — carry b's values.
// It is how a run-scoped metric set is cut out of the process-wide
// cumulative registry.
func Diff(a, b Snapshot) Snapshot {
	var d Snapshot
	for name, vb := range b.Counters {
		if delta := vb - a.Counters[name]; delta != 0 {
			if d.Counters == nil {
				d.Counters = map[string]uint64{}
			}
			d.Counters[name] = delta
		}
	}
	for name, vb := range b.Gauges {
		if d.Gauges == nil {
			d.Gauges = map[string]int64{}
		}
		d.Gauges[name] = vb
	}
	for name, vb := range b.Timers {
		va := a.Timers[name]
		if vb.Count == va.Count && vb.TotalNs == va.TotalNs {
			continue
		}
		if d.Timers == nil {
			d.Timers = map[string]TimerValue{}
		}
		d.Timers[name] = TimerValue{Count: vb.Count - va.Count, TotalNs: vb.TotalNs - va.TotalNs}
	}
	return d
}

// Registry holds named metrics. The zero value is not usable; create
// with NewRegistry or use the process-wide Default.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry (tests and embedded uses;
// the tools all report through Default).
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
	}
}

// def is the process-wide registry every layer reports into.
var def = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

// Counter returns the named counter, creating it on first use. The
// returned pointer is stable for the registry's lifetime — hot paths
// look it up once and hold it.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[name]; ok {
		return t
	}
	t = &Timer{}
	r.timers[name] = t
	return t
}

// checkName rejects names that would corrupt the dump formats. A panic
// (not an error) because a bad metric name is a programming mistake at
// a registration site, never input-dependent.
func checkName(name string) {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		panic(fmt.Sprintf("obs: bad metric name %q (want non-empty, no whitespace)", name))
	}
}

// Snapshot copies the registry's current values. Concurrent updates
// race benignly: each metric is read atomically, and a snapshot is a
// consistent lower bound for monotonic counters.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	for name, c := range r.counters {
		if v := c.Value(); v != 0 {
			if s.Counters == nil {
				s.Counters = map[string]uint64{}
			}
			s.Counters[name] = v
		}
	}
	for name, g := range r.gauges {
		if v := g.Value(); v != 0 {
			if s.Gauges == nil {
				s.Gauges = map[string]int64{}
			}
			s.Gauges[name] = v
		}
	}
	for name, t := range r.timers {
		if c, tot := t.Count(), t.Total(); c != 0 || tot != 0 {
			if s.Timers == nil {
				s.Timers = map[string]TimerValue{}
			}
			s.Timers[name] = TimerValue{Count: c, TotalNs: int64(tot)}
		}
	}
	return s
}
