package engine

import (
	"sync/atomic"
	"testing"
)

// tracked wires f's push hook to count into pushes and its occupancy bit
// to bit 3 of occ, and returns f.
func tracked(f *FIFO[int], occ *atomic.Uint64, pushes *int) *FIFO[int] {
	f.OnPush(func() { *pushes++ })
	f.TrackOccupancy(occ, 3)
	return f
}

func TestFIFOPeekRef(t *testing.T) {
	var c Clock
	f := NewFIFO[int](2, &c)
	if f.PeekRef() != nil {
		t.Fatal("PeekRef of empty FIFO not nil")
	}
	f.Push(7)
	if f.PeekRef() != nil {
		t.Fatal("PeekRef sees an entry in its push cycle")
	}
	c.Advance()
	if p := f.PeekRef(); p == nil || *p != 7 {
		t.Fatalf("PeekRef = %v, want pointer to 7", p)
	}
	if f.Len() != 1 {
		t.Fatalf("PeekRef changed Len to %d", f.Len())
	}
}

func TestFIFOMoveHeadToVisibility(t *testing.T) {
	var c Clock
	src, dst := NewFIFO[int](2, &c), NewFIFO[int](2, &c)
	src.Push(1)
	if src.MoveHeadTo(dst) {
		t.Fatal("entry pushed this cycle moved")
	}
	if src.Len() != 1 || dst.Len() != 0 {
		t.Fatalf("refused move changed lengths: src %d dst %d", src.Len(), dst.Len())
	}
	c.Advance()
	if !src.MoveHeadTo(dst) {
		t.Fatal("visible head did not move")
	}
	if dst.CanPop() {
		t.Fatal("moved entry visible in the cycle it moved")
	}
	c.Advance()
	if v, ok := dst.Pop(); !ok || v != 1 {
		t.Fatalf("dst pop = %d,%v, want 1,true", v, ok)
	}
}

func TestFIFOMoveHeadToFullDst(t *testing.T) {
	var c Clock
	var dstOcc atomic.Uint64
	dstPushes := 0
	src := NewFIFO[int](2, &c)
	dst := tracked(NewFIFO[int](1, &c), &dstOcc, &dstPushes)
	src.Push(1)
	dst.Push(2)
	dstOcc.Store(0) // so a refused move that still set the bit shows
	c.Advance()
	if src.MoveHeadTo(dst) {
		t.Fatal("move into a full FIFO succeeded")
	}
	if src.Len() != 1 || dst.Len() != 1 || dstPushes != 1 || dstOcc.Load() != 0 {
		t.Fatalf("refused move changed state: src %d dst %d, dst pushes %d occ %x",
			src.Len(), dst.Len(), dstPushes, dstOcc.Load())
	}
	if v, _ := src.Peek(); v != 1 {
		t.Fatalf("src head = %d, want 1", v)
	}
	if v, _ := dst.Peek(); v != 2 {
		t.Fatalf("dst head = %d, want 2", v)
	}
}

func TestFIFOMoveHeadToZeroesSource(t *testing.T) {
	type msg struct{ p *int }
	var c Clock
	src, dst := NewFIFO[msg](2, &c), NewFIFO[msg](2, &c)
	x := 1
	src.Push(msg{&x})
	c.Advance()
	slot := src.head
	src.MoveHeadTo(dst)
	if src.buf[slot] != (entry[msg]{}) {
		t.Fatalf("source slot not zeroed: %+v", src.buf[slot])
	}
}

// TestFIFOMoveHeadToWrap moves through rings of coprime capacities so
// both heads and both tails wrap many times at different offsets.
func TestFIFOMoveHeadToWrap(t *testing.T) {
	var c Clock
	src, dst := NewFIFO[int](3, &c), NewFIFO[int](2, &c)
	next, want := 0, 0
	for cycle := 0; cycle < 100; cycle++ {
		c.Advance()
		if v, ok := dst.Pop(); ok {
			if v != want {
				t.Fatalf("cycle %d: dst pop = %d, want %d", cycle, v, want)
			}
			want++
		}
		src.MoveHeadTo(dst)
		if src.Push(next) {
			next++
		}
	}
	if want < 50 {
		t.Fatalf("only %d values crossed both rings", want)
	}
}

func TestFIFOMoveHeadToHooks(t *testing.T) {
	var c Clock
	var srcOcc, dstOcc atomic.Uint64
	srcPushes, dstPushes := 0, 0
	src := tracked(NewFIFO[int](2, &c), &srcOcc, &srcPushes)
	dst := tracked(NewFIFO[int](2, &c), &dstOcc, &dstPushes)
	src.Push(1)
	c.Advance()
	srcOcc.Store(0) // a consumer clears the bit itself; the move must not set it
	if !src.MoveHeadTo(dst) {
		t.Fatal("move failed")
	}
	if srcPushes != 1 || dstPushes != 1 {
		t.Fatalf("push hooks fired src %d dst %d times, want 1 and 1", srcPushes, dstPushes)
	}
	if srcOcc.Load() != 0 || dstOcc.Load() != 1<<3 {
		t.Fatalf("occupancy src %x dst %x, want 0 and %x", srcOcc.Load(), dstOcc.Load(), 1<<3)
	}
}

// FuzzFIFOMove replays random operation sequences on two FIFO pairs: one
// moves with MoveHeadTo, the other with Peek + Push + Pop, and the pairs
// must agree on every outcome, length and popped value.
//
// The first byte picks the layout of the MoveHeadTo pair. With bit 0
// clear, src (capacity 3) and dst (capacity 2) are separate FIFOs. With
// bit 0 set, both have capacity 2 and are neighbours in one NewFIFOs slab
// between two empty guard FIFOs, src first unless bit 1 is set; the
// guards' rings must stay untouched. Each further byte is one operation:
// bits 0-1 select push into src, move, pop from dst or advance the clock;
// the rest is the pushed value.
func FuzzFIFOMove(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 3, 2, 0, 4, 8, 3, 1, 1, 3, 2, 1, 2})
	f.Add([]byte{0, 0, 4, 8, 12, 3, 1, 1, 1, 3, 2, 2, 2, 1, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		layout := ops[0]
		ops = ops[1:]
		var c Clock
		var gotOcc, wantOcc atomic.Uint64
		gotPushes, wantPushes := 0, 0
		srcCap, dstCap := 3, 2
		var gotSrc, gotDst *FIFO[int]
		var guards []*FIFO[int]
		if layout&1 != 0 {
			srcCap = 2
			slab := NewFIFOs[int](4, 2, &c)
			gotSrc, gotDst = slab[1], slab[2]
			if layout&2 != 0 {
				gotSrc, gotDst = gotDst, gotSrc
			}
			guards = []*FIFO[int]{slab[0], slab[3]}
		} else {
			gotSrc, gotDst = NewFIFO[int](srcCap, &c), NewFIFO[int](dstCap, &c)
		}
		gotDst = tracked(gotDst, &gotOcc, &gotPushes)
		wantSrc := NewFIFO[int](srcCap, &c)
		wantDst := tracked(NewFIFO[int](dstCap, &c), &wantOcc, &wantPushes)
		for k, op := range ops {
			switch op & 3 {
			case 0:
				if gotSrc.Push(int(op)) != wantSrc.Push(int(op)) {
					t.Fatalf("op %d: push outcomes differ", k)
				}
			case 1:
				moved := gotSrc.MoveHeadTo(gotDst)
				v, ok := wantSrc.Peek()
				want := ok && wantDst.Push(v)
				if want {
					wantSrc.Pop()
				}
				if moved != want {
					t.Fatalf("op %d: MoveHeadTo = %v, want %v", k, moved, want)
				}
			case 2:
				g, gok := gotDst.Pop()
				w, wok := wantDst.Pop()
				if g != w || gok != wok {
					t.Fatalf("op %d: dst pop %d,%v, want %d,%v", k, g, gok, w, wok)
				}
			case 3:
				c.Advance()
			}
			if gotSrc.Len() != wantSrc.Len() || gotDst.Len() != wantDst.Len() {
				t.Fatalf("op %d: lengths src %d dst %d, want %d %d",
					k, gotSrc.Len(), gotDst.Len(), wantSrc.Len(), wantDst.Len())
			}
			if gotPushes != wantPushes || gotOcc.Load() != wantOcc.Load() {
				t.Fatalf("op %d: dst hooks %d occ %x, want %d %x",
					k, gotPushes, gotOcc.Load(), wantPushes, wantOcc.Load())
			}
			for _, g := range guards {
				if g.Len() != 0 {
					t.Fatalf("op %d: guard FIFO holds %d entries, want 0", k, g.Len())
				}
				for i, e := range g.buf {
					if e != (entry[int]{}) {
						t.Fatalf("op %d: guard slot %d = %+v, want untouched", k, i, e)
					}
				}
			}
		}
	})
}
