package noc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// refRouter is the output-major arbiter the candidate-mask Router
// replaced, kept verbatim as the reference for FuzzRouterArbitration:
// every output that is not full scans all inputs from rr[o] for the
// first cached head that routes to it.
type refRouter[T any] struct {
	in       []*engine.FIFO[T]
	out      []*engine.FIFO[T]
	route    func(T) int
	rr       []int
	Forwards uint64
	heads    []T
	ro       []int32
}

func newRefRouter[T any](in, out []*engine.FIFO[T], route func(T) int) *refRouter[T] {
	return &refRouter[T]{in: in, out: out, route: route,
		rr: make([]int, len(out)), heads: make([]T, len(in)), ro: make([]int32, len(in))}
}

func (r *refRouter[T]) Tick() int {
	any := false
	for i, f := range r.in {
		if head, ok := f.Peek(); ok {
			r.heads[i] = head
			r.ro[i] = int32(r.route(head))
			any = true
		} else {
			r.ro[i] = -1
		}
	}
	if !any {
		return 0
	}
	n := len(r.in)
	moved := 0
	for o := range r.out {
		if r.out[o].Full() {
			continue
		}
		oo := int32(o)
		for k, i := 0, r.rr[o]; k < n; k++ {
			if i >= n {
				i -= n
			}
			// HOL blocking: only the (cached) head is considered.
			if r.ro[i] == oo {
				if !r.out[o].Push(r.heads[i]) {
					break // aliased output filled by an earlier port
				}
				r.in[i].Pop()
				r.ro[i] = -1
				if r.rr[o] = i + 1; r.rr[o] == n {
					r.rr[o] = 0
				}
				moved++
				break
			}
			i++
		}
	}
	r.Forwards += uint64(moved)
	return moved
}

// flit is the fuzzed message: its output port and a unique sequence
// number, so any reordering between the two routers shows.
type flit struct {
	out int
	id  uint32
}

// byteStream hands out fuzz bytes; an exhausted stream reads as zeros.
type byteStream []byte

func (s *byteStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// The fuzz input is a header followed by one record per cycle:
//
//	header: nIn-1, nOut-1, flags [, rr[0..nOut-1] if flags&flagRR]
//	flags:  bits 0-1 input depth-1, bits 2-3 output depth-1,
//	        flagAlias (odd outputs share the FIFO of the even one below),
//	        flagRR (explicit initial round-robin pointers)
//	cycle:  inject byte: 0x80|_ then mul, add: every input gets a flit
//	        routed to (i*mul + add) % nOut; otherwise k = inject%8
//	        (input, route) byte pairs
//	        drain byte: mode = drain>>6: 0 none, 1 output drain%nOut,
//	        2 every output, 3 every even output
const (
	flagAlias = 1 << 4
	flagRR    = 1 << 5
)

// routerHeader encodes a fuzz header for the given shape.
func routerHeader(nIn, nOut int, flags byte) []byte {
	return []byte{byte(nIn - 1), byte(nOut - 1), flags}
}

// FuzzRouterArbitration drives the candidate-mask Router and the
// reference arbiter in lockstep over identical FIFOs and traffic, and
// requires identical moves, output contents, input lengths, round-robin
// pointers and forward counts after every cycle. It also checks the
// Router's persistent state after every tick against a scan of its
// inputs (see checkRouterState).
func FuzzRouterArbitration(f *testing.F) {
	// A few in-code seeds; the checked-in corpus under testdata covers
	// the edge shapes (n = 1, n = 64 at rr = 0, all outputs full, the
	// MemPool tile routers) and candidates that persist across ticks
	// (a head blocked for many cycles, pushes behind a routed head,
	// aliased outputs).
	f.Add(append(routerHeader(4, 4, 0x05), 0x80, 1, 0, 0x80, 0x80, 1, 1, 0x80))
	f.Add(append(routerHeader(3, 2, flagAlias), 0x80, 0, 0, 0, 0x80, 1, 0, 0xc0))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := byteStream(data)
		nIn := int(s.next()%maxRadix) + 1
		nOut := int(s.next()%maxRadix) + 1
		flags := s.next()
		inDepth, outDepth := int(flags&3)+1, int(flags>>2&3)+1

		var clock engine.Clock
		newSide := func() (in, out []*engine.FIFO[flit]) {
			in = make([]*engine.FIFO[flit], nIn)
			for i := range in {
				in[i] = engine.NewFIFO[flit](inDepth, &clock)
			}
			out = make([]*engine.FIFO[flit], nOut)
			for o := range out {
				if flags&flagAlias != 0 && o%2 == 1 {
					out[o] = out[o-1]
				} else {
					out[o] = engine.NewFIFO[flit](outDepth, &clock)
				}
			}
			return in, out
		}
		gotIn, gotOut := newSide()
		wantIn, wantOut := newSide()
		got := NewRouter("fuzz", gotIn, gotOut, func(m *flit) int { return m.out })
		want := newRefRouter(wantIn, wantOut, func(m flit) int { return m.out })
		if flags&flagRR != 0 {
			for o := range got.rr {
				got.rr[o] = int(s.next()) % nIn
				want.rr[o] = got.rr[o]
			}
		}

		var id uint32
		inject := func(i, o int) {
			id++
			m := flit{out: o % nOut, id: id}
			if gotIn[i].Push(m) != wantIn[i].Push(m) {
				t.Fatalf("input %d: push outcome differs", i)
			}
		}
		drain := func(cycle, o int) {
			g, gok := gotOut[o].Pop()
			w, wok := wantOut[o].Pop()
			if g != w || gok != wok {
				t.Fatalf("cycle %d output %d: popped %v,%v, want %v,%v", cycle, o, g, gok, w, wok)
			}
		}
		lenBefore := make([]int, nIn)
		step := func(cycle int, drainMode, drainOut byte) {
			for i, q := range gotIn {
				lenBefore[i] = q.Len()
			}
			if g, w := got.Tick(), want.Tick(); g != w {
				t.Fatalf("cycle %d: moved %d, want %d", cycle, g, w)
			}
			for i := range gotIn {
				if g, w := gotIn[i].Len(), wantIn[i].Len(); g != w {
					t.Fatalf("cycle %d input %d: len %d, want %d", cycle, i, g, w)
				}
			}
			checkRouterState(t, cycle, got, lenBefore)
			for o := range gotOut {
				if g, w := gotOut[o].Len(), wantOut[o].Len(); g != w {
					t.Fatalf("cycle %d output %d: len %d, want %d", cycle, o, g, w)
				}
			}
			if !slices.Equal(got.rr, want.rr) {
				t.Fatalf("cycle %d: rr %v, want %v", cycle, got.rr, want.rr)
			}
			if got.Forwards != want.Forwards {
				t.Fatalf("cycle %d: Forwards %d, want %d", cycle, got.Forwards, want.Forwards)
			}
			switch drainMode {
			case 1:
				drain(cycle, int(drainOut)%nOut)
			case 2, 3:
				for o := range gotOut {
					if drainMode == 2 || o%2 == 0 {
						drain(cycle, o)
					}
				}
			}
			clock.Advance()
		}

		cycle := 0
		for ; len(s) > 0; cycle++ {
			if sel := s.next(); sel&0x80 != 0 {
				mul, add := int(s.next()), int(s.next())
				for i := range gotIn {
					inject(i, i*mul+add)
				}
			} else {
				for k := int(sel % 8); k > 0; k-- {
					inject(int(s.next())%nIn, int(s.next()))
				}
			}
			d := s.next()
			step(cycle, d>>6, d&63)
		}
		// Drain everything: the remaining traffic must leave both routers
		// in the same order.
		for limit := cycle + nIn*inDepth*(nOut+1) + 4; got.Busy(); cycle++ {
			if cycle > limit {
				t.Fatalf("routers still busy after %d cycles", cycle)
			}
			step(cycle, 2, 0)
		}
		for o := range gotOut {
			for gotOut[o].Len() > 0 || wantOut[o].Len() > 0 {
				drain(cycle, o)
			}
		}
	})
}

// checkRouterState requires the Router's cross-cycle state, right after
// a tick, to match a scan of its inputs: occ is the set of non-empty
// inputs and Busy agrees with it; input i is a candidate of output o
// exactly when its head is visible, routes to o and was already the head
// before the tick (lenBefore[i] is the input's length then: a winner
// exposes its next entry, which is routed on the next tick); routed is
// the union of the candidate masks and outs the set of outputs with one.
func checkRouterState(t *testing.T, cycle int, r *Router[flit], lenBefore []int) {
	t.Helper()
	var occ, routed, outs uint64
	wantCand := make([]uint64, len(r.out))
	for i, q := range r.in {
		bit := uint64(1) << uint(i)
		if q.Len() > 0 {
			occ |= bit
		}
		if head := q.PeekRef(); head != nil && q.Len() == lenBefore[i] {
			wantCand[head.out] |= bit
			routed |= bit
			outs |= 1 << uint(head.out)
		}
	}
	if g := r.occ.Load(); g != occ {
		t.Fatalf("cycle %d: occ %x, want %x", cycle, g, occ)
	}
	if r.Busy() != (occ != 0) {
		t.Fatalf("cycle %d: Busy() = %v with occupied inputs %x", cycle, r.Busy(), occ)
	}
	if !slices.Equal(r.cand, wantCand) {
		t.Fatalf("cycle %d: cand %x, want %x", cycle, r.cand, wantCand)
	}
	if r.routed != routed || r.outs != outs {
		t.Fatalf("cycle %d: routed %x outs %x, want %x %x", cycle, r.routed, r.outs, routed, outs)
	}
}

func TestNewRouterRadixLimit(t *testing.T) {
	var clock engine.Clock
	ports := func(n int) []*engine.FIFO[flit] {
		p := make([]*engine.FIFO[flit], n)
		for i := range p {
			p[i] = engine.NewFIFO[flit](1, &clock)
		}
		return p
	}
	route := func(m *flit) int { return m.out }
	for _, tc := range []struct {
		name    string
		in, out int
	}{
		{"wide-in", 65, 1},
		{"wide-out", 1, 65},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("NewRouter(%d×%d) did not panic", tc.in, tc.out)
				}
				if msg := fmt.Sprint(p); !strings.Contains(msg, tc.name) {
					t.Fatalf("panic %q does not name router %q", msg, tc.name)
				}
			}()
			NewRouter(tc.name, ports(tc.in), ports(tc.out), route)
		})
	}
	// 64 on each side is the largest radix the masks hold.
	NewRouter("max", ports(64), ports(64), route)
}

// TestNewFabricWithinRadixLimit builds every built-in topology, whose
// largest router is TeraPool's 9×36 tile-req stage.
func TestNewFabricWithinRadixLimit(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo Topology
	}{
		{"small", Small()},
		{"medium", Medium()},
		{"mempool", MemPool256()},
		{"terapool", TeraPool1024()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clock engine.Clock
			NewFabric(tc.topo, &clock, 2)
		})
	}
}
