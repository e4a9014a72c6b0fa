package engine

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	for i := 1; i <= 5; i++ {
		c.Advance()
		if c.Now() != Cycle(i) {
			t.Fatalf("after %d advances clock at %d", i, c.Now())
		}
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("after reset clock at %d, want 0", c.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	b.Seed(42)
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs collided %d/1000 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFIFOOneCycleVisibility(t *testing.T) {
	var c Clock
	f := NewFIFO[int](4, &c)
	if !f.Push(1) {
		t.Fatal("push into empty FIFO failed")
	}
	if f.CanPop() {
		t.Fatal("entry visible in the cycle it was pushed")
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop succeeded in push cycle")
	}
	c.Advance()
	if !f.CanPop() {
		t.Fatal("entry not visible one cycle later")
	}
	v, ok := f.Pop()
	if !ok || v != 1 {
		t.Fatalf("pop = %d,%v want 1,true", v, ok)
	}
}

func TestFIFOBackpressure(t *testing.T) {
	var c Clock
	f := NewFIFO[int](2, &c)
	if !f.Push(1) || !f.Push(2) {
		t.Fatal("pushes into non-full FIFO failed")
	}
	if f.Push(3) {
		t.Fatal("push into full FIFO succeeded")
	}
	if !f.Full() {
		t.Fatal("Full() false on full FIFO")
	}
	c.Advance()
	if v, _ := f.Pop(); v != 1 {
		t.Fatalf("FIFO order broken: got %d want 1", v)
	}
	if !f.Push(3) {
		t.Fatal("push after pop failed")
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	prop := func(vals []uint16, seed uint64) bool {
		var c Clock
		f := NewFIFO[uint16](8, &c)
		r := NewRNG(seed)
		var pushed, popped []uint16
		i := 0
		for len(popped) < len(vals) {
			c.Advance()
			// Randomly interleave pushes and pops.
			if i < len(vals) && r.Intn(2) == 0 {
				if f.Push(vals[i]) {
					pushed = append(pushed, vals[i])
					i++
				}
			}
			if r.Intn(2) == 0 {
				if v, ok := f.Pop(); ok {
					popped = append(popped, v)
				}
			}
			if i == len(vals) && f.Len() == 0 {
				break
			}
		}
		// Drain.
		for f.Len() > 0 {
			c.Advance()
			if v, ok := f.Pop(); ok {
				popped = append(popped, v)
			}
		}
		if len(popped) != len(pushed) {
			return false
		}
		for j := range popped {
			if popped[j] != pushed[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFIFO(0) did not panic")
		}
	}()
	var c Clock
	NewFIFO[int](0, &c)
}

func TestFIFOWrapAround(t *testing.T) {
	var c Clock
	f := NewFIFO[int](3, &c)
	next := 0
	want := 0
	for cycle := 0; cycle < 100; cycle++ {
		c.Advance()
		if v, ok := f.Pop(); ok {
			if v != want {
				t.Fatalf("cycle %d: pop = %d want %d", cycle, v, want)
			}
			want++
		}
		if f.Push(next) {
			next++
		}
	}
	if want == 0 {
		t.Fatal("no values ever popped")
	}
}

// TestNewFIFOsSlab fills and wraps the middle FIFO of a slab over and
// over: its neighbours' rings, which sit right before and after it in the
// slot slab, must never change, and every FIFO holds exactly capacity
// entries.
func TestNewFIFOsSlab(t *testing.T) {
	const capacity = 3
	var c Clock
	fs := NewFIFOs[int](3, capacity, &c)
	for i, f := range fs {
		if f.Cap() != capacity || cap(f.buf) != capacity {
			t.Fatalf("FIFO %d: Cap %d, ring cap %d, want %d", i, f.Cap(), cap(f.buf), capacity)
		}
	}
	before, mid, after := fs[0], fs[1], fs[2]
	before.Push(-1)
	after.Push(-2)
	next, want := 0, 0
	for cycle := 0; cycle < 20; cycle++ {
		c.Advance()
		// Pop two of the three entries, so the head walks every offset
		// of the ring, then refill to capacity.
		for k := 0; k < 2; k++ {
			if v, ok := mid.Pop(); ok {
				if v != want {
					t.Fatalf("cycle %d: pop = %d, want %d", cycle, v, want)
				}
				want++
			}
		}
		for mid.Push(next) {
			next++
		}
		if mid.Len() != capacity {
			t.Fatalf("cycle %d: full FIFO holds %d, want %d", cycle, mid.Len(), capacity)
		}
	}
	for _, nb := range []struct {
		f    *FIFO[int]
		want int
	}{{before, -1}, {after, -2}} {
		if v, ok := nb.f.Peek(); nb.f.Len() != 1 || !ok || v != nb.want {
			t.Fatalf("neighbour holds %d entries, head %d,%v; want one entry %d", nb.f.Len(), v, ok, nb.want)
		}
		for i, e := range nb.f.buf[1:] {
			if e != (entry[int]{}) {
				t.Fatalf("neighbour slot %d = %+v, want untouched", i+1, e)
			}
		}
	}
}
