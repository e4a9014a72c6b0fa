package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestActiveSetBasics(t *testing.T) {
	s := MakeActiveSet(200)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	for _, id := range []int{0, 63, 64, 65, 199, 7} {
		s.Add(id)
	}
	s.Add(63) // idempotent
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if !s.Contains(64) || s.Contains(66) {
		t.Fatal("Contains wrong")
	}
	got := s.AppendTo(nil)
	want := []int{0, 7, 63, 64, 65, 199}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendTo = %v, want %v (ascending)", got, want)
	}
	s.Remove(64)
	s.Remove(64) // idempotent
	if s.Len() != 5 || s.Contains(64) {
		t.Fatal("Remove wrong")
	}
}

// TestActiveSetIterationOrder: iteration must be ascending regardless of
// insertion order — the determinism contract of the scheduled kernel.
func TestActiveSetIterationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := MakeActiveSet(1024)
	var want []int
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		id := rng.Intn(1024)
		if !seen[id] {
			seen[id] = true
			want = append(want, id)
		}
		s.Add(id)
	}
	sort.Ints(want)
	if got := s.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration not ascending: %v", got)
	}
}

func TestSchedulerWakeHeap(t *testing.T) {
	s := NewScheduler(16)
	s.WakeAt(3, 50)
	s.WakeAt(1, 10)
	s.WakeAt(2, 10)
	s.WakeAt(4, 30)

	if at, ok := s.NextWake(); !ok || at != 10 {
		t.Fatalf("NextWake = %d,%v want 10,true", at, ok)
	}
	var woke []int
	s.WakeDue(10, func(id int) { woke = append(woke, id) })
	// Ties pop in ascending ID order.
	if !reflect.DeepEqual(woke, []int{1, 2}) {
		t.Fatalf("WakeDue(10) woke %v, want [1 2]", woke)
	}
	if !s.Runnable(1) || !s.Runnable(2) || s.Runnable(3) {
		t.Fatal("active set not updated by WakeDue")
	}
	if at, _ := s.NextWake(); at != 30 {
		t.Fatalf("NextWake after pop = %d, want 30", at)
	}
	woke = woke[:0]
	s.WakeDue(29, func(id int) { woke = append(woke, id) })
	if len(woke) != 0 {
		t.Fatalf("WakeDue(29) woke %v, want none", woke)
	}
	s.WakeDue(100, func(id int) { woke = append(woke, id) })
	if !reflect.DeepEqual(woke, []int{4, 3}) {
		t.Fatalf("WakeDue(100) woke %v, want [4 3] (cycle order)", woke)
	}
	if _, ok := s.NextWake(); ok {
		t.Fatal("heap should be empty")
	}
}

func TestSchedulerSleepWake(t *testing.T) {
	s := NewScheduler(8)
	if s.AnyRunnable() {
		t.Fatal("new scheduler has runnables")
	}
	s.Wake(5)
	s.Wake(2)
	if got := s.AppendRunnable(nil); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("AppendRunnable = %v", got)
	}
	s.Sleep(5)
	if s.Runnable(5) || !s.AnyRunnable() {
		t.Fatal("Sleep wrong")
	}
}

// TestFIFOHooks: OnPush fires on every successful push, and not on a
// refused one — the wake condition the scheduler hangs off each port.
func TestFIFOHooks(t *testing.T) {
	var clock Clock
	f := NewFIFO[int](2, &clock)
	pushes := 0
	f.OnPush(func() { pushes++ })

	f.Push(1)
	f.Push(2)
	if f.Push(3) {
		t.Fatal("push into full FIFO succeeded")
	}
	if pushes != 2 {
		t.Fatalf("pushes = %d, want 2 (refused push must not fire)", pushes)
	}
	clock.Advance()
	f.Pop()
	f.Pop()
	if pushes != 2 {
		t.Fatalf("pushes = %d after pops, want 2", pushes)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance()
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Fatalf("Now = %d, want 10", c.Now())
	}
	c.AdvanceTo(5) // never rewinds
	if c.Now() != 10 {
		t.Fatalf("Now = %d after backwards AdvanceTo, want 10", c.Now())
	}
}
