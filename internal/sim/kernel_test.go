package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := New(1)
	var got []Time
	times := []Duration{5 * Second, 1 * Second, 3 * Second, 2 * Second, 4 * Second}
	for _, d := range times {
		d := d
		k.After(d, func() { got = append(got, k.Now()) })
	}
	k.Run(10 * Second)
	want := []Time{1 * Second, 2 * Second, 3 * Second, 4 * Second, 5 * Second}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1*Second, func() { order = append(order, i) })
	}
	k.Run(2 * Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(1*Second, func() { fired = true })
	e.Cancel()
	k.Run(2 * Second)
	if fired {
		t.Error("canceled event fired")
	}
	if !e.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	// Double cancel and nil cancel must be safe.
	e.Cancel()
	var nilEvent *Event
	nilEvent.Cancel()
}

func TestKernelHorizonStopsClockAtHorizon(t *testing.T) {
	k := New(1)
	fired := false
	k.After(10*Second, func() { fired = true })
	k.Run(5 * Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if k.Now() != 5*Second {
		t.Errorf("Now() = %v after Run, want horizon 5s", k.Now())
	}
	// A second Run can pick the event up.
	k.Run(20 * Second)
	if !fired {
		t.Error("event did not fire on extended run")
	}
}

func TestKernelEventsScheduledDuringRun(t *testing.T) {
	k := New(1)
	var seq []string
	k.After(1*Second, func() {
		seq = append(seq, "a")
		k.After(1*Second, func() { seq = append(seq, "b") })
	})
	k.Run(5 * Second)
	if len(seq) != 2 || seq[0] != "a" || seq[1] != "b" {
		t.Fatalf("got sequence %v", seq)
	}
}

func TestKernelStop(t *testing.T) {
	k := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		k.After(Duration(i)*Second, func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	k.Run(10 * Second)
	if count != 2 {
		t.Errorf("Stop did not halt the run: %d events fired", count)
	}
}

func TestKernelPanicsOnPastSchedule(t *testing.T) {
	k := New(1)
	k.After(2*Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(1*Second, func() {})
	})
	k.Run(3 * Second)
}

func TestKernelDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := New(seed)
		var fired []Time
		var schedule func()
		n := 0
		schedule = func() {
			fired = append(fired, k.Now())
			n++
			if n < 50 {
				k.After(k.UniformDuration(Millisecond, Second), schedule)
			}
		}
		k.After(0, schedule)
		k.Run(Hour)
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

func TestUniformDuration(t *testing.T) {
	k := New(7)
	for i := 0; i < 1000; i++ {
		d := k.UniformDuration(10*Microsecond, 100*Microsecond)
		if d < 10*Microsecond || d > 100*Microsecond {
			t.Fatalf("UniformDuration out of range: %v", d)
		}
	}
	if d := k.UniformDuration(5, 5); d != 5 {
		t.Errorf("degenerate range returned %d", d)
	}
}

// Property: for any batch of scheduled delays, events fire in sorted order
// and every non-canceled event fires exactly once.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delaysMS []uint16, cancelMask []bool) bool {
		k := New(99)
		var fired []Time
		want := make([]Time, 0, len(delaysMS))
		for i, ms := range delaysMS {
			d := Duration(ms) * Millisecond
			e := k.After(d, func() { fired = append(fired, k.Now()) })
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel()
			} else {
				want = append(want, Time(d))
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		k.Run(Time(1<<16) * Millisecond)
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: UniformTime always lands inside the requested interval.
func TestQuickUniformTimeInRange(t *testing.T) {
	k := New(5)
	f := func(a, b uint32) bool {
		lo, hi := Time(a), Time(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := k.UniformTime(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestKernelAtArg(t *testing.T) {
	k := New(1)
	var got []int
	push := func(x any) { got = append(got, x.(int)) }
	k.AtArg(2*Second, push, 2)
	k.AfterArg(1*Second, push, 1)
	k.AtArg(2*Second, push, 3) // same instant: schedule order
	k.Run(5 * Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

// Fired events are recycled: steady-state scheduling reuses pool slots
// instead of allocating.
func TestKernelEventPoolRecycles(t *testing.T) {
	k := New(1)
	fn := func() {}
	e1 := k.After(Second, fn)
	k.Run(2 * Second)
	e2 := k.After(Second, fn)
	if e1 != e2 {
		t.Error("fired event was not recycled by the next schedule")
	}
	// A canceled event is recycled at once.
	e2.Cancel()
	k.Run(4 * Second)
	if !e2.Canceled() {
		t.Error("canceled flag lost before slot reuse")
	}
	if e3 := k.After(Second, fn); e3 != e2 {
		t.Error("canceled event was not recycled")
	} else if e3.Canceled() {
		t.Error("recycled event still marked canceled")
	}
}

// Steady-state scheduling and firing allocates nothing once the pool is
// warm (the closure here is static, so the only candidate allocations
// are kernel-internal).
func TestKernelZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < 8 {
			k.After(Millisecond, fn)
		}
	}
	// Warm the pool and the heap slice.
	k.After(Millisecond, fn)
	k.Run(Second)
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		k.After(Millisecond, fn)
		k.Run(k.Now() + Second)
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f allocs/run, want 0", allocs)
	}
}

// Reset reuses the kernel: same seed, identical stream and scheduling as
// a fresh kernel, with pending events of the previous run discarded.
func TestKernelReset(t *testing.T) {
	fresh := New(42)
	reused := New(7)
	reused.After(Second, func() {})
	reused.After(5*Second, func() {})
	reused.Run(2 * Second) // leave one event pending
	reused.Reset(42)
	if reused.Pending() != 0 || reused.Now() != 0 || reused.Fired() != 0 {
		t.Fatalf("Reset left state: pending=%d now=%v fired=%d",
			reused.Pending(), reused.Now(), reused.Fired())
	}
	for i := 0; i < 100; i++ {
		a := fresh.UniformDuration(0, Hour)
		b := reused.UniformDuration(0, Hour)
		if a != b {
			t.Fatalf("draw %d diverged after Reset: %v vs %v", i, a, b)
		}
	}
	var seqA, seqB []Time
	fresh.After(fresh.UniformDuration(0, Second), func() { seqA = append(seqA, fresh.Now()) })
	reused.After(reused.UniformDuration(0, Second), func() { seqB = append(seqB, reused.Now()) })
	fresh.Run(Hour)
	reused.Run(Hour)
	if len(seqA) != 1 || len(seqB) != 1 || seqA[0] != seqB[0] {
		t.Fatalf("firing times diverged after Reset: %v vs %v", seqA, seqB)
	}
}

// The splitmix source must be deterministic per seed and differ across
// seeds.
func TestSplitmixStream(t *testing.T) {
	var a, b, c splitmix64
	a.Seed(9)
	b.Seed(9)
	c.Seed(10)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		x, y, z := a.Uint64(), b.Uint64(), c.Uint64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("same seed diverged")
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

// RunUntil must drain incrementally and leave the clock at its target,
// and Step must resume from wherever the previous drain left off —
// preserving the global (time, seq) order across the API boundary.
func TestStepRunUntilInterleave(t *testing.T) {
	k := New(1)
	var got []int
	for i, at := range []Time{1 * Second, 2 * Second, 2 * Second, 3 * Second, 5 * Second} {
		i := i
		k.At(at, func() { got = append(got, i) })
	}
	if at, ok := k.NextEventTime(); !ok || at != 1*Second {
		t.Fatalf("NextEventTime = %v, %v; want 1s, true", at, ok)
	}
	k.RunUntil(2 * Second) // fires events 0, 1, 2
	if want := []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("after RunUntil(2s): fired %v, want %v", got, want)
	}
	if k.Now() != 2*Second {
		t.Fatalf("Now = %v after RunUntil(2s)", k.Now())
	}
	k.RunUntil(1 * Second) // target behind the clock: no-op, no rewind
	if k.Now() != 2*Second {
		t.Fatalf("RunUntil rewound the clock to %v", k.Now())
	}
	if !k.Step() {
		t.Fatal("Step found no event")
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(got, want) || k.Now() != 3*Second {
		t.Fatalf("after Step: fired %v at %v", got, k.Now())
	}
	k.Run(10 * Second) // Run resumes from the partially drained heap
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("after Run: fired %v, want %v", got, want)
	}
	if k.Now() != 10*Second {
		t.Fatalf("Now = %v after Run(10s)", k.Now())
	}
	if k.Step() {
		t.Fatal("Step fired on an empty heap")
	}
}

// A Stop()ed Run advances the clock past still-pending events; firing
// them later must NOT rewind the clock (the re-entrancy invariant), and
// callbacks that schedule relative to Now must stay in the future.
func TestRunReenterableAfterStop(t *testing.T) {
	k := New(1)
	var fired []Time
	note := func() { fired = append(fired, k.Now()) }
	k.At(1*Second, func() { note(); k.Stop() })
	k.At(2*Second, note)
	// An overdue callback scheduling After(d) must land in the future.
	k.At(3*Second, func() { k.After(Second, note) })
	k.Run(10 * Second)
	if k.Now() != 10*Second {
		t.Fatalf("Now = %v after stopped Run; want the horizon", k.Now())
	}
	if len(fired) != 1 {
		t.Fatalf("fired %v before Stop; want one event", fired)
	}
	// The overdue events fire at the current instant, clock held.
	if !k.Step() || k.Now() != 10*Second {
		t.Fatalf("overdue Step rewound the clock to %v", k.Now())
	}
	k.Run(20 * Second)
	if k.Now() != 20*Second {
		t.Fatalf("Now = %v after resumed Run", k.Now())
	}
	want := []Time{1 * Second, 10 * Second, 11 * Second}
	if !slices.Equal(fired, want) {
		t.Fatalf("firing instants %v, want %v", fired, want)
	}
}

// --- equivalence with a lazily-canceling reference -------------------

// Labels name what fired: raw events count up from 0; deadline d fires
// dlLabel+d and ticker i fires tkLabel+i.
const (
	dlLabel = 1 << 20
	tkLabel = 2 << 20
	nTimers = 4
)

// scheduler is the surface the random program drives: the real kernel
// and its timers, or the reference.
type scheduler interface {
	now() Time
	at(t Time, label int, withArg bool)
	cancel(label int)
	setDeadline(d int, t Time)
	clearDeadline(d int)
	startTicker(i int, delay Duration)
	stopTicker(i int)
	step() bool
	runUntil(t Time)
	next() (Time, bool)
	reset(seed int64)
	pending() int
	fired() uint64
}

// kernelSched drives a Kernel with raw events, Deadlines and Tickers.
type kernelSched struct {
	k      *Kernel
	ev     map[int]*Event
	dl     []*Deadline
	tk     []*Ticker
	onFire func(int)
}

func newKernelSched(onFire func(int)) *kernelSched {
	s := &kernelSched{k: New(1), ev: map[int]*Event{}, onFire: onFire}
	for i := 0; i < nTimers; i++ {
		d, tk := dlLabel+i, tkLabel+i
		s.dl = append(s.dl, NewDeadline(s.k, func() { onFire(d) }))
		s.tk = append(s.tk, NewTicker(s.k, Duration(i+1)*Second, func() { onFire(tk) }))
	}
	return s
}

func (s *kernelSched) now() Time { return s.k.Now() }

// at keeps the raw event's pointer under its label; the program cancels
// a label only while it is pending, right after canceling it (a double
// cancel), or from inside its own callback, so the pointer is never used
// once dead.
func (s *kernelSched) at(t Time, label int, withArg bool) {
	if withArg {
		s.ev[label] = s.k.AtArg(t, func(x any) { s.onFire(x.(int)) }, label)
	} else {
		s.ev[label] = s.k.At(t, func() { s.onFire(label) })
	}
}

func (s *kernelSched) cancel(label int)              { s.ev[label].Cancel() }
func (s *kernelSched) setDeadline(d int, t Time)     { s.dl[d].Set(t) }
func (s *kernelSched) clearDeadline(d int)           { s.dl[d].Clear() }
func (s *kernelSched) startTicker(i int, d Duration) { s.tk[i].Start(d) }
func (s *kernelSched) stopTicker(i int)              { s.tk[i].Stop() }
func (s *kernelSched) step() bool                    { return s.k.Step() }
func (s *kernelSched) runUntil(t Time)               { s.k.RunUntil(t) }
func (s *kernelSched) next() (Time, bool)            { return s.k.NextEventTime() }
func (s *kernelSched) pending() int                  { return s.k.Pending() }
func (s *kernelSched) fired() uint64                 { return s.k.Fired() }
func (s *kernelSched) reset(seed int64) {
	s.k.Reset(seed)
	clear(s.ev)
	for i := range s.dl {
		s.dl[i].Rearm()
		s.tk[i].Rearm()
	}
}

// refEntry is one event of the reference scheduler.
type refEntry struct {
	at       Time
	seq      uint64
	label    int
	canceled bool
}

// refSched is the reference the indexed heap is checked against: an
// unordered slice scanned for the (time, seq) minimum, with lazy
// cancellation — a canceled entry stays queued and is discarded when
// its turn comes. Deadlines and tickers are cancel-plus-schedule.
type refSched struct {
	t      Time
	seq    uint64
	q      []*refEntry
	nFired uint64
	ev     map[int]*refEntry
	dl, tk [nTimers]*refEntry
	onFire func(int)
}

func (r *refSched) now() Time { return r.t }

func (r *refSched) schedule(t Time, label int) *refEntry {
	if t < r.t {
		panic("reference: scheduling in the past")
	}
	e := &refEntry{at: t, seq: r.seq, label: label}
	r.seq++
	r.q = append(r.q, e)
	return e
}

func (r *refSched) at(t Time, label int, _ bool) { r.ev[label] = r.schedule(t, label) }
func (r *refSched) cancel(label int)             { r.ev[label].canceled = true }

func (r *refSched) setDeadline(d int, t Time) {
	if r.dl[d] != nil {
		r.dl[d].canceled = true
	}
	r.dl[d] = r.schedule(t, dlLabel+d)
}

func (r *refSched) clearDeadline(d int) {
	if r.dl[d] != nil {
		r.dl[d].canceled = true
		r.dl[d] = nil
	}
}

func (r *refSched) startTicker(i int, delay Duration) {
	r.stopTicker(i)
	r.tk[i] = r.schedule(r.t+delay, tkLabel+i)
}

func (r *refSched) stopTicker(i int) {
	if r.tk[i] != nil {
		r.tk[i].canceled = true
		r.tk[i] = nil
	}
}

// head discards canceled entries at the front of the (time, seq) order
// and returns the position of the earliest live one, or -1.
func (r *refSched) head() int {
	for {
		m := -1
		for i, e := range r.q {
			if m < 0 || e.at < r.q[m].at || (e.at == r.q[m].at && e.seq < r.q[m].seq) {
				m = i
			}
		}
		if m < 0 || !r.q[m].canceled {
			return m
		}
		r.q = slices.Delete(r.q, m, m+1)
	}
}

func (r *refSched) step() bool {
	m := r.head()
	if m < 0 {
		return false
	}
	e := r.q[m]
	r.q = slices.Delete(r.q, m, m+1)
	r.t = max(r.t, e.at)
	r.nFired++
	switch {
	case e.label >= tkLabel:
		i := e.label - tkLabel
		r.tk[i] = r.schedule(r.t+Duration(i+1)*Second, e.label)
	case e.label >= dlLabel:
		r.dl[e.label-dlLabel] = nil
	}
	r.onFire(e.label)
	return true
}

func (r *refSched) runUntil(t Time) {
	for m := r.head(); m >= 0 && r.q[m].at <= t; m = r.head() {
		r.step()
	}
	r.t = max(r.t, t)
}

func (r *refSched) next() (Time, bool) {
	if m := r.head(); m >= 0 {
		return r.q[m].at, true
	}
	return 0, false
}

func (r *refSched) pending() int {
	n := 0
	for _, e := range r.q {
		if !e.canceled {
			n++
		}
	}
	return n
}

func (r *refSched) fired() uint64 { return r.nFired }

func (r *refSched) reset(int64) {
	*r = refSched{ev: map[int]*refEntry{}, onFire: r.onFire}
}

// program is a seeded random interleaving of scheduling calls, including
// calls made from inside firing callbacks. It keeps its own count of the
// live events, and logs every firing as (instant, label).
type program struct {
	s       scheduler
	rng     *rand.Rand
	nextRaw int
	live    []int       // pending raw labels
	pos     map[int]int // label -> index in live
	armed   [nTimers]bool
	running [nTimers]bool
	log     [][2]int64
}

func (p *program) expectPending() int {
	n := len(p.live)
	for i := 0; i < nTimers; i++ {
		if p.armed[i] {
			n++
		}
		if p.running[i] {
			n++
		}
	}
	return n
}

func (p *program) forget(label int) {
	i, ok := p.pos[label]
	if !ok {
		return
	}
	last := p.live[len(p.live)-1]
	p.live[i] = last
	p.pos[last] = i
	p.live = p.live[:len(p.live)-1]
	delete(p.pos, label)
}

// fire is every event's callback: log it, then maybe cancel the firing
// event itself (a no-op) and maybe schedule, cancel or re-arm more.
func (p *program) fire(label int) {
	p.log = append(p.log, [2]int64{int64(p.s.now()), int64(label)})
	switch {
	case label >= tkLabel:
		if p.rng.Intn(5) == 0 {
			p.s.stopTicker(label - tkLabel)
			p.running[label-tkLabel] = false
		}
	case label >= dlLabel:
		p.armed[label-dlLabel] = false
		if p.rng.Intn(5) == 0 {
			p.s.clearDeadline(label - dlLabel)
		}
	default:
		p.forget(label)
		if p.rng.Intn(4) == 0 {
			p.s.cancel(label)
			p.s.cancel(label)
		}
	}
	if p.rng.Intn(2) == 0 {
		p.mutate()
	}
}

// mutate performs one random scheduling call that is legal both at top
// level and inside a callback.
func (p *program) mutate() {
	now := p.s.now()
	i := p.rng.Intn(nTimers)
	switch p.rng.Intn(8) {
	case 0, 1, 2:
		label := p.nextRaw
		p.nextRaw++
		p.s.at(now+Time(p.rng.Intn(4))*Second, label, p.rng.Intn(2) == 0)
		p.pos[label] = len(p.live)
		p.live = append(p.live, label)
	case 3:
		if len(p.live) == 0 {
			return
		}
		label := p.live[p.rng.Intn(len(p.live))]
		p.forget(label)
		p.s.cancel(label)
		if p.rng.Intn(3) == 0 {
			p.s.cancel(label) // double cancel, nothing scheduled in between
		}
	case 4:
		p.s.setDeadline(i, now+Time(p.rng.Intn(4))*Second)
		p.armed[i] = true
	case 5:
		p.s.clearDeadline(i)
		p.armed[i] = false
	case 6:
		p.s.startTicker(i, Duration(p.rng.Intn(3))*Second)
		p.running[i] = true
	case 7:
		p.s.stopTicker(i)
		p.running[i] = false
	}
}

// op is one top-level step: a scheduling call, progress, or a Reset.
func (p *program) op() {
	switch r := p.rng.Intn(200); {
	case r == 0:
		p.s.reset(int64(p.rng.Intn(100)))
		p.live, p.pos = p.live[:0], map[int]int{}
		p.armed, p.running = [nTimers]bool{}, [nTimers]bool{}
	case r < 60:
		p.s.step()
	case r < 80:
		p.s.runUntil(p.s.now() + Time(p.rng.Intn(3))*Second)
	default:
		p.mutate()
	}
}

// The indexed heap with eager removal and in-place re-arming must fire
// exactly what a lazily-canceling (time, seq) scheduler fires, in the
// same order, while Pending counts only live events.
func TestKernelMatchesLazyCancelReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pk := &program{rng: rand.New(rand.NewSource(seed)), pos: map[int]int{}}
		pr := &program{rng: rand.New(rand.NewSource(seed)), pos: map[int]int{}}
		pk.s = newKernelSched(pk.fire)
		pr.s = &refSched{ev: map[int]*refEntry{}, onFire: pr.fire}
		for step := 0; step < 3000; step++ {
			pk.op()
			pr.op()
			if !slices.Equal(pk.log, pr.log) {
				t.Fatalf("seed %d step %d: fire order diverged\nkernel    %v\nreference %v",
					seed, step, tail(pk.log), tail(pr.log))
			}
			if pk.s.fired() != pr.s.fired() {
				t.Fatalf("seed %d step %d: Fired %d, reference %d", seed, step, pk.s.fired(), pr.s.fired())
			}
			if got, ref, want := pk.s.pending(), pr.s.pending(), pk.expectPending(); got != want || ref != want {
				t.Fatalf("seed %d step %d: Pending %d, reference %d live, program holds %d",
					seed, step, got, ref, want)
			}
			kt, kok := pk.s.next()
			rt, rok := pr.s.next()
			if kt != rt || kok != rok || pk.s.now() != pr.s.now() {
				t.Fatalf("seed %d step %d: next %v,%v now %v; reference next %v,%v now %v",
					seed, step, kt, kok, pk.s.now(), rt, rok, pr.s.now())
			}
		}
		if len(pk.log) < 1000 {
			t.Fatalf("seed %d: only %d firings, the interleaving is too thin", seed, len(pk.log))
		}
	}
}

func tail(log [][2]int64) [][2]int64 { return log[max(0, len(log)-5):] }
