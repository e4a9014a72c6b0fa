package noc

import (
	"fmt"
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
)

// BenchmarkRouterTick measures one router crossbar pass for the MemPool
// router shapes under three occupancy regimes: "dense" (every input holds
// a routable flit — a contended tile router under a hot kernel),
// "sparse" (one occupied input among many — the common case for link
// arbiters most cycles) and "blocked" (every input holds a head whose
// output stays full — a router inside a saturated hot-spot tree). The
// shapes are the tile request router (4 cores + group ingress → 16 banks
// + 4 group egresses), the tile response router (16 banks + ingress → 4
// cores + 4 egresses), a link arbiter (16 member tiles → one link) and a
// 4×4 toy. Every case must run at 0 allocs/op: the candidate masks are
// pre-sized at construction.
func BenchmarkRouterTick(b *testing.B) {
	shapes := []struct {
		name    string
		in, out int
	}{
		{"toy", 4, 4},
		{"tile-req", 5, 20},
		{"tile-resp", 17, 8},
		{"link", 16, 1},
	}
	build := func(nIn, nOut int) (*engine.Clock, []*engine.FIFO[bus.Request], []*engine.FIFO[bus.Request], *Router[bus.Request]) {
		var clock engine.Clock
		in := make([]*engine.FIFO[bus.Request], nIn)
		for i := range in {
			in[i] = engine.NewFIFO[bus.Request](2, &clock)
		}
		out := make([]*engine.FIFO[bus.Request], nOut)
		for o := range out {
			out[o] = engine.NewFIFO[bus.Request](2, &clock)
		}
		route := func(r *bus.Request) int { return int(r.Addr) }
		return &clock, in, out, NewRouter("bench", in, out, route)
	}

	for _, s := range shapes {
		b.Run(fmt.Sprintf("shape=%s/occ=dense", s.name), func(b *testing.B) {
			// Every input always holds a flit. Routes come from a fixed
			// pseudo-random sequence, so heads contend for outputs and a
			// loser keeps its head for the next tick, as in the fabric;
			// each iteration refills the inputs that forwarded and drains
			// the outputs.
			clock, in, out, r := build(s.in, s.out)
			var routes [256]uint32
			for k := range routes {
				routes[k] = ((uint32(k)*2654435761 + 12345) >> 16) % uint32(s.out)
			}
			next := 0
			refill := func() {
				for j := range in {
					if in[j].Len() == 0 {
						in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: routes[next&255], Src: j})
						next++
					}
				}
			}
			refill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance()
				if moved := r.Tick(); moved == 0 {
					b.Fatal("no flit moved")
				}
				refill()
				clock.Advance()
				for o := range out {
					if out[o].Len() > 0 {
						out[o].Pop()
					}
				}
			}
		})

		b.Run(fmt.Sprintf("shape=%s/occ=blocked", s.name), func(b *testing.B) {
			// Every output is full and never drains; every input holds a
			// visible head routed to one of them, so no tick moves a flit.
			clock, in, out, r := build(s.in, s.out)
			for o := range out {
				for !out[o].Full() {
					out[o].Push(bus.Request{})
				}
			}
			for j := range in {
				in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j % s.out), Src: j})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance()
				if moved := r.Tick(); moved != 0 {
					b.Fatalf("moved %d flits into full outputs", moved)
				}
			}
		})

		b.Run(fmt.Sprintf("shape=%s/occ=sparse", s.name), func(b *testing.B) {
			clock, in, out, r := build(s.in, s.out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, o := i%s.in, i%s.out
				in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(o), Src: j})
				clock.Advance()
				if moved := r.Tick(); moved != 1 {
					b.Fatalf("moved %d flits, want 1", moved)
				}
				clock.Advance()
				out[o].Pop()
			}
		})
	}
}
