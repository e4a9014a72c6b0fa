package noc

import (
	"fmt"
	"math/bits"
	"sync/atomic"

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
//
// The router keeps its arbitration state across cycles instead of
// rescanning its inputs. Every input FIFO sets the input's bit in occ on
// push; a head is routed once, when it first becomes visible, and its bit
// then stays in cand of its output until it wins. A head blocked on a full
// output therefore costs nothing per cycle beyond that output's Full
// check — the router-side mirror of a waiter that sleeps instead of
// polling.
type Router[T any] struct {
	Name string
	in   []*engine.FIFO[T]
	out  []*engine.FIFO[T]
	// route maps a message to an output port index. It reads the head in
	// place and must not keep the pointer.
	route func(*T) int
	// rr is the per-output round-robin pointer, advanced past the last
	// winning input. (A pointer that merely rotates once per cycle can
	// phase-lock with periodic downstream grants and starve inputs
	// indefinitely — observed as a livelocked reservation holder.)
	rr []int
	// Forwards counts messages moved, for the energy model.
	Forwards uint64
	// occ has bit i set while input i is non-empty: the input FIFO sets
	// it on push (atomically, since producers in several partitions may
	// push in one phase) and Tick clears it when its move empties the
	// input.
	occ atomic.Uint64
	// routed has bit i set while input i's head sits in a candidate
	// mask; cand[o] has bit i set when that head routes to output o, and
	// outs has bit o set while cand[o] is non-zero. All three persist
	// across ticks until the head wins.
	routed uint64
	outs   uint64
	cand   []uint64
}

// NewRouter creates a router with the given input and output ports and
// makes each input FIFO report its occupancy to the router. The ports are
// owned by the caller (the fabric builder), which lets two routers share a
// FIFO as "my output, your input". An input belongs to one router only
// and must be empty when the router is built. Each side holds at most 64
// ports.
func NewRouter[T any](name string, in, out []*engine.FIFO[T], route func(*T) int) *Router[T] {
	if len(in) == 0 || len(out) == 0 {
		panic(fmt.Sprintf("noc: router %s needs ports", name))
	}
	if len(in) > maxRadix || len(out) > maxRadix {
		panic(fmt.Sprintf("noc: router %s has %d inputs and %d outputs; the limit is %d each",
			name, len(in), len(out), maxRadix))
	}
	r := &Router[T]{Name: name, in: in, out: out, route: route,
		rr: make([]int, len(out)), cand: make([]uint64, len(out))}
	for i, q := range in {
		q.TrackOccupancy(&r.occ, i)
	}
	return r
}

// Tick forwards up to one message per output port (and at most one per
// input port), with independent round-robin arbitration per output. It
// returns the number of messages moved.
//
// Tick first routes the heads that became visible since the last tick —
// occupied inputs whose head is not yet in a candidate mask — and sets
// each one's bit in the mask of its output. It then visits, in ascending
// order, only the outputs that have a candidate, and picks the first set
// bit at or after rr[o] in the ring of inputs. The winner moves straight
// from its input ring into the output ring and leaves the masks; the
// losers keep their bits for the next tick. Each head sits in exactly one
// mask, so no input can win twice, and the winner per output — hence
// every push, pop and rr update — is the one a scan of all inputs from
// rr[o] would find.
func (r *Router[T]) Tick() int {
	for fresh := r.occ.Load() &^ r.routed; fresh != 0; fresh &= fresh - 1 {
		i := bits.TrailingZeros64(fresh)
		head := r.in[i].PeekRef()
		if head == nil {
			continue // pushed this cycle: visible, and routed, next tick
		}
		o := r.route(head)
		r.cand[o] |= 1 << uint(i)
		r.outs |= 1 << uint(o)
		r.routed |= 1 << uint(i)
	}
	n := len(r.in)
	moved := 0
	for outs := r.outs; outs != 0; outs &= outs - 1 {
		o := bits.TrailingZeros64(outs)
		dst := r.out[o]
		if dst.Full() {
			continue
		}
		// Rotate the n-bit ring right by rr so that input rr lands on bit
		// 0. The left shift also carries bits past bit n-1 (all of c when
		// rr == 0 and n < 64; for n == 64 Go makes a shift by 64 zero),
		// but they sit above the ring's own set bits, so the lowest set
		// bit is still the winner.
		c := r.cand[o]
		rr := uint(r.rr[o])
		i := bits.TrailingZeros64(c>>rr|c<<(uint(n)-rr)) + int(rr)
		if i >= n {
			i -= n
		}
		// HOL blocking: only the routed head is considered. The head is
		// visible and dst was checked above, so the move succeeds; a
		// refused one must leave the masks alone.
		src := r.in[i]
		if !src.MoveHeadTo(dst) {
			continue
		}
		bit := uint64(1) << uint(i)
		r.routed &^= bit
		if r.cand[o] = c &^ bit; r.cand[o] == 0 {
			r.outs &^= 1 << uint(o)
		}
		if src.Len() == 0 {
			r.occ.And(^bit)
		}
		if r.rr[o] = i + 1; r.rr[o] == n {
			r.rr[o] = 0
		}
		moved++
	}
	r.Forwards += uint64(moved)
	return moved
}

// Busy reports whether any input stage is occupied — the router's
// quiescence predicate, read from the occupancy mask. An idle router's
// Tick is a no-op, so the fabric's dirty-list scheduling skips it
// entirely; a router stays busy while a queued message is not yet visible
// (pushed this cycle) or is blocked by downstream backpressure.
func (r *Router[T]) Busy() bool {
	return r.occ.Load() != 0
}
