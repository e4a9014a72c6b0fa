package fabric

import "sync"

// flight is one in-progress computation of a job's result. Followers
// block on done and read the leader's outcome — the retry-free analog of
// the paper's wake-on-ready queues: nobody re-runs the computation,
// nobody polls for it, everyone sleeps until the one execution finishes.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// flightGroup deduplicates concurrent identical computations (classic
// singleflight, dependency-free). Completed flights are forgotten
// immediately: keeping finished bodies is the server's memo's job (and
// the point cache's, for points), the group only collapses concurrency.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// do runs fn once per key among concurrent callers. shared reports
// whether this caller joined another caller's execution instead of
// running fn itself.
func (g *flightGroup) do(key string, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.val, f.err, true
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, f.err, false
}
