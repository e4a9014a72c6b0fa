package fabric

import "sync"

// memoLimit caps the bytes of rendered bodies a server keeps in memory.
// Bodies are kilobytes, so the cap only matters to a server answering
// many distinct jobs.
const memoLimit = 16 << 20

// bodyMemo keeps rendered response bodies under their ETag, so a warm
// request is answered without running the engine or reading the point
// cache. An ETag names the job identity and the format, so its bytes
// never change for the life of the binary. When an insert would pass
// limit, the oldest-inserted bodies are dropped first; a hit does no
// bookkeeping.
type bodyMemo struct {
	limit int

	mu    sync.Mutex
	m     map[string][]byte
	order []string // keys of m, oldest insert first
	bytes int      // total length of the bodies in m
}

func (c *bodyMemo) get(etag string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[etag]
	return b, ok
}

// put stores body under etag. A body already present stays, and a body
// larger than the whole limit is not kept.
func (c *bodyMemo) put(etag string, body []byte) {
	if len(body) > c.limit {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[etag]; ok {
		return
	}
	if c.m == nil {
		c.m = map[string][]byte{}
	}
	for c.bytes+len(body) > c.limit {
		old := c.order[0]
		c.order = c.order[1:]
		c.bytes -= len(c.m[old])
		delete(c.m, old)
	}
	c.m[etag] = body
	c.order = append(c.order, etag)
	c.bytes += len(body)
}
