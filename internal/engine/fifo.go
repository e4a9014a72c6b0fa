package engine

import "sync/atomic"

// FIFO is a bounded queue whose entries become visible one cycle after they
// are pushed. This models a register-stage FIFO: no matter in which order
// components are ticked within a cycle, a message pushed in cycle t can be
// popped at cycle t+1 at the earliest, which yields clean one-cycle-per-hop
// pipelining across the whole system.
//
// The zero value is unusable; construct with NewFIFO or NewFIFOs.
type FIFO[T any] struct {
	buf   []entry[T]
	head  int
	count int
	clock *Clock

	// onPush is the scheduling hook (see OnPush). Nil when the FIFO is
	// not wired into an activity-driven scheduler.
	onPush func()
	// occ and occBit are the consumer's occupancy mask and this FIFO's
	// bit in it (see TrackOccupancy). occ is nil when untracked.
	occ    *atomic.Uint64
	occBit uint64
}

type entry[T any] struct {
	val T
	at  Cycle // cycle the entry was pushed
}

// NewFIFO returns a FIFO with the given capacity attached to clock.
func NewFIFO[T any](capacity int, clock *Clock) *FIFO[T] {
	return NewFIFOs[T](1, capacity, clock)[0]
}

// NewFIFOs returns n FIFOs of the given capacity attached to clock, built
// from two slabs: one allocation holds every header and one holds every
// ring slot. Each ring is a three-index subslice of the slot slab, capped
// at capacity, so no FIFO can grow into its neighbour's slots.
func NewFIFOs[T any](n, capacity int, clock *Clock) []*FIFO[T] {
	if capacity <= 0 {
		panic("engine: FIFO capacity must be positive")
	}
	hdrs := make([]FIFO[T], n)
	slots := make([]entry[T], n*capacity)
	fs := make([]*FIFO[T], n)
	for i := range hdrs {
		lo := i * capacity
		hdrs[i] = FIFO[T]{buf: slots[lo : lo+capacity : lo+capacity], clock: clock}
		fs[i] = &hdrs[i]
	}
	return fs
}

// OnPush registers fn to run after every successful Push. The
// activity-driven scheduler wires it to mark the FIFO's consumer
// runnable, so a component sleeps with no polling until traffic actually
// reaches it — the simulator-side mirror of the paper's wake-up messages.
func (f *FIFO[T]) OnPush(fn func()) { f.onPush = fn }

// TrackOccupancy makes every successful push set bit of *mask. The
// consumer clears the bit itself when a pop leaves the FIFO empty, so the
// mask is the set of its non-empty inputs without a scan. The set is
// atomic because producers in different partitions may push into FIFOs
// that share one mask in the same phase.
func (f *FIFO[T]) TrackOccupancy(mask *atomic.Uint64, bit int) {
	f.occ, f.occBit = mask, 1<<uint(bit)
}

// Cap returns the FIFO capacity.
func (f *FIFO[T]) Cap() int { return len(f.buf) }

// Len returns the number of queued entries (visible or not).
func (f *FIFO[T]) Len() int { return f.count }

// Full reports whether a Push would fail.
func (f *FIFO[T]) Full() bool { return f.count == len(f.buf) }

// tail returns the index of the slot the next push fills. head+count <
// 2*len always holds, so a compare-and-subtract wrap replaces the integer
// division of a modulo on this hot path.
func (f *FIFO[T]) tail() int {
	idx := f.head + f.count
	if idx >= len(f.buf) {
		idx -= len(f.buf)
	}
	return idx
}

// pushed accounts for an entry just written at the tail and fires the
// push-side notifications.
func (f *FIFO[T]) pushed() {
	f.count++
	if f.occ != nil {
		f.occ.Or(f.occBit)
	}
	if f.onPush != nil {
		f.onPush()
	}
}

// Push appends v, stamping it with the current cycle. It reports whether
// the push succeeded; it fails when the FIFO is full (backpressure).
func (f *FIFO[T]) Push(v T) bool {
	if f.count == len(f.buf) {
		return false
	}
	f.buf[f.tail()] = entry[T]{val: v, at: f.clock.Now()}
	f.pushed()
	return true
}

// CanPop reports whether the head entry exists and is at least one cycle
// old, i.e. visible this cycle.
func (f *FIFO[T]) CanPop() bool {
	return f.count > 0 && f.buf[f.head].at < f.clock.Now()
}

// Peek returns the head entry without removing it. The boolean mirrors
// CanPop.
func (f *FIFO[T]) Peek() (T, bool) {
	var zero T
	if !f.CanPop() {
		return zero, false
	}
	return f.buf[f.head].val, true
}

// PeekRef returns a pointer to the visible head entry inside the ring, or
// nil when CanPop is false. The pointer is valid only until the next
// Push, Pop or MoveHeadTo on f; the caller must not keep or modify it.
func (f *FIFO[T]) PeekRef() *T {
	if !f.CanPop() {
		return nil
	}
	return &f.buf[f.head].val
}

// Pop removes and returns the head entry. The boolean mirrors CanPop.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if !f.CanPop() {
		return zero, false
	}
	v := f.buf[f.head].val
	f.advance()
	return v, true
}

// advance drops the head entry, zeroing its slot to release references.
func (f *FIFO[T]) advance() {
	f.buf[f.head] = entry[T]{}
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.count--
}

// MoveHeadTo pops the visible head of f and pushes it into dst in one
// step, copying the entry from ring slot to ring slot instead of through
// a value. It is Pop followed by dst.Push, except that it does nothing
// and reports false when either would fail: the head is not visible, or
// dst is full. dst's push notifications fire as for Push.
func (f *FIFO[T]) MoveHeadTo(dst *FIFO[T]) bool {
	if !f.CanPop() || dst.count == len(dst.buf) {
		return false
	}
	d := &dst.buf[dst.tail()]
	d.val = f.buf[f.head].val
	d.at = dst.clock.Now()
	f.advance()
	dst.pushed()
	return true
}
