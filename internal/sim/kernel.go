package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled callback. It is returned by the scheduling methods
// so the caller can cancel it before it fires; timers that are renewed
// (lease expirations, retransmissions) rely on this.
//
// Each event knows its kernel and its position in the kernel's heap, so
// Cancel removes it from the queue at once: the heap holds live events
// only, however often a timer is re-armed.
//
// # Ownership
//
// Events are pooled: the kernel recycles an Event as soon as it has fired
// or been canceled, and the same pointer will be handed out again by a
// later At/After call. A *Event is therefore only valid
//   - while the event is pending, and
//   - inside the event's own callback (the kernel recycles it only after
//     the callback returns, so a callback may Cancel or inspect its own
//     event, which is a no-op).
//
// A pointer is dead right after Cancel, and right after the event's
// callback returns. Callers that retain timer events must drop their
// reference at both points — conventionally by setting the field to nil
// after Cancel and at the top of the callback. Cancel on a dead pointer
// would cancel whatever event currently owns the pooled slot. sim.Ticker,
// sim.Deadline, core.Retry and the netsim TCP machinery all follow this
// rule; use them instead of raw events where possible.
type Event struct {
	at       Time
	seq      uint64 // tie-breaker: same-time events fire in schedule order
	fn       func()
	argFn    func(any)
	arg      any
	k        *Kernel
	idx      int32 // heap position while queued, -1 otherwise
	canceled bool
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing: it leaves the heap and its slot
// returns to the pool immediately. Canceling from inside the event's own
// callback, or a nil event, is a no-op, so callers may cancel
// unconditionally — but see the ownership rule above: the pointer is
// dead once Cancel returns.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	e.canceled = true
	if e.idx >= 0 {
		e.k.remove(e)
	}
}

// Canceled reports whether Cancel was called on the event. The flag
// survives until the pooled slot is handed out again.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

// Kernel is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the experiment harness runs many kernels in parallel, one
// per goroutine, each fully owning its kernel.
//
// The event queue is an indexed 4-ary min-heap of pooled events. Fired
// and canceled events go onto a free list and are reused by later
// schedule calls, so steady-state scheduling allocates nothing. Cancel
// removes an event from the middle of the heap in O(log n), and timers
// move their queued event in place (reschedule), so the heap never holds
// a dead event.
type Kernel struct {
	now     Time
	seq     uint64
	heap    []*Event
	free    []*Event
	src     splitmix64
	rng     *rand.Rand
	stopped bool
	fired   uint64
}

// New creates a kernel whose random stream is derived from seed. Two
// kernels created with the same seed execute identically.
func New(seed int64) *Kernel {
	k := &Kernel{}
	k.src.Seed(seed)
	k.rng = rand.New(&k.src)
	return k
}

// Reset returns the kernel to its initial state with a fresh seed while
// keeping the event pool and heap capacity, so a worker goroutine can run
// many simulations back to back without reallocating. Pending events are
// discarded (and recycled). Events retained by the previous simulation
// are invalid after Reset.
func (k *Kernel) Reset(seed int64) {
	for _, e := range k.heap {
		e.idx = -1
		k.release(e)
	}
	k.heap = k.heap[:0]
	k.now = 0
	k.seq = 0
	k.fired = 0
	k.stopped = false
	k.src.Seed(seed)
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random stream. All model
// randomness (delays, jitter, failure times) must come from this stream so
// runs replay exactly. The stream is backed by a SplitMix64 generator —
// constant-size state, no per-kernel seeding cost (the stdlib source seeds
// a 607-word lagged Fibonacci table per kernel, which dominates short
// runs when a sweep creates thousands of kernels).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired reports how many events have executed, a cheap progress and
// complexity measure used by tests and benchmarks.
func (k *Kernel) Fired() uint64 { return k.fired }

// alloc takes an event from the free list, or makes a new one. The
// canceled flag is cleared here, on reuse, rather than on release, so a
// caller that retained a canceled event's pointer still reads
// Canceled() == true until the slot is actually handed out again.
func (k *Kernel) alloc() *Event {
	n := len(k.free) - 1
	if n < 0 {
		return &Event{k: k, idx: -1}
	}
	e := k.free[n]
	k.free = k.free[:n]
	e.canceled = false
	return e
}

// release clears an event and returns it to the free list. Clearing fn
// and arg matters: it releases the closure and its captures for GC even
// while the event sits in the pool.
func (k *Kernel) release(e *Event) {
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	k.free = append(k.free, e)
}

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the current instant) panics: the models never need it and it always
// indicates a bug.
func (k *Kernel) At(t Time, fn func()) *Event {
	e := k.schedule(t)
	e.fn = fn
	return e
}

// AtArg schedules fn(arg) at absolute time t. Unlike At, the callback is
// a plain function plus an argument, so hot paths that would otherwise
// allocate a fresh closure per event (the netsim delivery path) can pass
// a pooled record through a static function for zero per-event
// allocations.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) *Event {
	e := k.schedule(t)
	e.argFn = fn
	e.arg = arg
	return e
}

func (k *Kernel) schedule(t Time) *Event {
	k.checkFuture(t)
	e := k.alloc()
	e.at = t
	e.seq = k.seq
	k.seq++
	k.push(e)
	return e
}

// reschedule moves a queued event to time t in place. It takes the next
// sequence number exactly as Cancel followed by a fresh schedule would,
// so the (time, seq) firing order — and with it every run — is the same
// either way; only the pool churn and the heap slot are saved. Ticker
// and Deadline re-arm through it.
func (k *Kernel) reschedule(e *Event, t Time) {
	if e.idx < 0 {
		panic("sim: rescheduling an event that is not pending")
	}
	k.checkFuture(t)
	e.at = t
	e.seq = k.seq
	k.seq++
	k.fix(int(e.idx), e)
}

func (k *Kernel) checkFuture(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// AfterArg schedules fn(arg) to run d from now. Negative d panics.
func (k *Kernel) AfterArg(d Duration, fn func(any), arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.AtArg(k.now+d, fn, arg)
}

// UniformDuration draws a duration uniformly from [lo, hi].
func (k *Kernel) UniformDuration(lo, hi Duration) Duration {
	if hi < lo {
		panic(fmt.Sprintf("sim: invalid uniform range [%v, %v]", lo, hi))
	}
	if hi == lo {
		return lo
	}
	return lo + Duration(k.rng.Int63n(int64(hi-lo)+1))
}

// UniformTime draws an instant uniformly from [lo, hi].
func (k *Kernel) UniformTime(lo, hi Time) Time {
	return Time(k.UniformDuration(Duration(lo), Duration(hi)))
}

// Stop makes Run (or RunUntil) return after the currently executing
// event completes. The clock still advances to the call's horizon, so
// events scheduled before it may remain pending behind the clock; see
// the re-entrancy invariant on Run.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the queue drains or the next
// event lies beyond horizon. The clock finishes at horizon so that model
// code observing Now at the end of a run sees the full duration.
//
// # Re-entrancy invariant
//
// Run, RunUntil and Step may be freely interleaved on one kernel; each
// call resumes from the current heap, and the clock NEVER rewinds. The
// one way an event can come to sit behind the clock is a Stop()ed Run
// (or RunUntil): the clock jumps to the horizon while undrained events
// keep their original times. Such events fire at the current instant —
// drainTo clamps the clock monotonically instead of assigning e.at —
// exactly as a real scheduler fires an overdue timer late. Before this
// was an invariant, a Stop'ed Run followed by another drain call would
// rewind Now to the stale event's time, breaking the "schedule only in
// the future" rule for every callback that fired after it.
func (k *Kernel) Run(horizon Time) {
	k.stopped = false
	k.drainTo(horizon)
	if k.now < horizon {
		k.now = horizon
	}
}

// RunUntil executes every event due at or before target and leaves the
// clock at target, like Run — the live driver calls it repeatedly to
// chase the wall clock, so unlike the one-shot Run it is documented as
// a resumable API: consecutive calls with non-decreasing targets drain
// the heap incrementally. A target at or before Now fires nothing and
// leaves the clock untouched (the clock never rewinds).
func (k *Kernel) RunUntil(target Time) {
	k.stopped = false
	k.drainTo(target)
	if k.now < target {
		k.now = target
	}
}

// RunWindow advances to target like RunUntil and reports the next
// pending event time (ok == false for an empty queue). It is the
// sharded fabric's per-window drain: advancing and peeking in one call
// keeps the barrier round-trip to a single exchange per shard.
func (k *Kernel) RunWindow(target Time) (next Time, ok bool) {
	k.RunUntil(target)
	return k.NextEventTime()
}

// Step executes the single next pending event, advancing the clock to
// its time (or holding the clock if the event is overdue — see Run's
// re-entrancy invariant). It reports whether an event fired, false
// meaning the queue was empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	k.fire(k.pop())
	return true
}

// NextEventTime reports the virtual time of the earliest pending event.
// The live driver uses it to compute how long the event loop may sleep
// on the wall clock.
func (k *Kernel) NextEventTime() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// drainTo fires events with at <= limit in (time, seq) order until the
// heap drains, the limit is reached, or Stop is called.
func (k *Kernel) drainTo(limit Time) {
	for len(k.heap) > 0 && !k.stopped && k.heap[0].at <= limit {
		k.fire(k.pop())
	}
}

// fire executes one event, clamping the clock monotonically: an event
// left behind the clock by a Stop()ed Run fires at the current instant
// rather than rewinding Now.
func (k *Kernel) fire(e *Event) {
	if e.at > k.now {
		k.now = e.at
	}
	k.fired++
	if e.argFn != nil {
		e.argFn(e.arg)
	} else {
		e.fn()
	}
	k.release(e)
}

// Pending reports the number of queued events. Canceled events leave the
// heap at once, so this is the number of live events.
func (k *Kernel) Pending() int { return len(k.heap) }

// eventLess orders events by (time, seq): schedule order breaks ties, so
// same-instant events fire in the order they were scheduled.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The event queue is a 4-ary min-heap. A 4-ary heap halves the tree depth
// of the binary heap and keeps the four children of a node on one cache
// line's worth of pointers, which measures faster on the simulator's
// churn of push/pop pairs. Every move through the heap records the
// event's new position in Event.idx, which is what lets Cancel and
// reschedule work on an event in the middle of the heap.

// push inserts an event into the heap.
func (k *Kernel) push(e *Event) {
	k.heap = append(k.heap, e)
	k.up(len(k.heap)-1, e)
}

// pop removes and returns the minimum event.
func (k *Kernel) pop() *Event {
	e := k.heap[0]
	k.removeAt(0)
	return e
}

// remove takes a canceled event out of the heap and recycles its slot.
func (k *Kernel) remove(e *Event) {
	k.removeAt(int(e.idx))
	k.release(e)
}

// removeAt unlinks the event at heap position i: the last event fills the
// hole and is sifted to its place.
func (k *Kernel) removeAt(i int) {
	h := k.heap
	h[i].idx = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	k.heap = h[:n]
	if i < n {
		k.fix(i, last)
	}
}

// fix places e into the hole at position i, sifting it up or down.
func (k *Kernel) fix(i int, e *Event) {
	if i > 0 && eventLess(e, k.heap[(i-1)>>2]) {
		k.up(i, e)
	} else {
		k.down(i, e)
	}
}

// up sifts e from the hole at position i towards the root.
func (k *Kernel) up(i int, e *Event) {
	h := k.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = e
	e.idx = int32(i)
}

// down sifts e from the hole at position i towards the leaves.
func (k *Kernel) down(i int, e *Event) {
	h := k.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].idx = int32(i)
		i = m
	}
	h[i] = e
	e.idx = int32(i)
}
