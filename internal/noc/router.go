package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
)

// maxRadix bounds a router's input and output counts: arbitration keeps
// one bit per input in a uint64 candidate mask per output, and one bit per
// output in a uint64 set of requested outputs.
const maxRadix = 64

// Router is a generic input-queued router stage. Each input port is a
// bounded timestamped FIFO; each output port forwards at most one message
// per cycle into a downstream FIFO (the next router's input, or a terminal
// port). Arbitration is round-robin across inputs with head-of-line
// blocking: only the head of each input queue is considered, so a blocked
// head stalls everything behind it — the mechanism behind hot-spot tree
// saturation.
type Router[T any] struct {
	Name string
	in   []*engine.FIFO[T]
	out  []*engine.FIFO[T]
	// route maps a message to an output port index.
	route func(T) int
	// rr is the per-output round-robin pointer, advanced past the last
	// winning input. (A pointer that merely rotates once per cycle can
	// phase-lock with periodic downstream grants and starve inputs
	// indefinitely — observed as a livelocked reservation holder.)
	rr []int
	// Forwards counts messages moved, for the energy model.
	Forwards uint64
	// heads caches, for the duration of one Tick, each input's visible
	// head; cand[o] has bit i set when input i's head routes to output o.
	// Every mask Tick sets it also clears, so cand is all zero between
	// ticks.
	heads []T
	cand  []uint64
}

// NewRouter creates a router with the given input and output ports.
// The ports are owned by the caller (the fabric builder), which lets two
// routers share a FIFO as "my output, your input". Each side holds at
// most 64 ports.
func NewRouter[T any](name string, in, out []*engine.FIFO[T], route func(T) int) *Router[T] {
	if len(in) == 0 || len(out) == 0 {
		panic(fmt.Sprintf("noc: router %s needs ports", name))
	}
	if len(in) > maxRadix || len(out) > maxRadix {
		panic(fmt.Sprintf("noc: router %s has %d inputs and %d outputs; the limit is %d each",
			name, len(in), len(out), maxRadix))
	}
	return &Router[T]{Name: name, in: in, out: out, route: route,
		rr: make([]int, len(out)), heads: make([]T, len(in)), cand: make([]uint64, len(out))}
}

// Tick forwards up to one message per output port (and at most one per
// input port), with independent round-robin arbitration per output. It
// returns the number of messages moved.
//
// The input pass peeks and routes each visible head once, setting its bit
// in the candidate mask of the output it routes to. The output pass then
// visits, in ascending order, only the outputs that have a candidate, and
// picks the first set bit at or after rr[o] in the ring of inputs. Each
// head sits in exactly one mask, so no input can win twice, and the winner
// per output — hence every push, pop and rr update — is the one a scan of
// all inputs from rr[o] would find.
func (r *Router[T]) Tick() int {
	var outs uint64
	for i, f := range r.in {
		if head, ok := f.Peek(); ok {
			r.heads[i] = head
			o := r.route(head)
			r.cand[o] |= 1 << uint(i)
			outs |= 1 << uint(o)
		}
	}
	n := len(r.in)
	moved := 0
	for ; outs != 0; outs &= outs - 1 {
		o := bits.TrailingZeros64(outs)
		c := r.cand[o]
		r.cand[o] = 0
		if r.out[o].Full() {
			continue
		}
		// Rotate the n-bit ring right by rr so that input rr lands on bit
		// 0. The left shift also carries bits past bit n-1 (all of c when
		// rr == 0 and n < 64; for n == 64 Go makes a shift by 64 zero),
		// but they sit above the ring's own set bits, so the lowest set
		// bit is still the winner.
		rr := uint(r.rr[o])
		i := bits.TrailingZeros64(c>>rr|c<<(uint(n)-rr)) + int(rr)
		if i >= n {
			i -= n
		}
		// HOL blocking: only the (cached) head is considered. Full was
		// checked above, so the push succeeds; a refused one must not pop.
		if !r.out[o].Push(r.heads[i]) {
			continue
		}
		r.in[i].Pop()
		if r.rr[o] = i + 1; r.rr[o] == n {
			r.rr[o] = 0
		}
		moved++
	}
	r.Forwards += uint64(moved)
	return moved
}

// Busy reports whether any input stage is occupied — the router's
// quiescence predicate. An idle router's Tick is a no-op, so the fabric's
// dirty-list scheduling skips it entirely; a router stays busy while a
// queued message is not yet visible (pushed this cycle) or is blocked by
// downstream backpressure.
func (r *Router[T]) Busy() bool {
	for _, f := range r.in {
		if f.Len() > 0 {
			return true
		}
	}
	return false
}
