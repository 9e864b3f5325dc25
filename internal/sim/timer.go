package sim

// Ticker fires a callback periodically. Protocol models use tickers for
// announcement trains, lease renewals and retransmission schedules; all of
// them need to be stoppable and restartable when interface state changes.
//
// Scheduling goes through a static callback with the ticker itself as the
// argument (AfterArg), so arming and re-arming never allocates a closure:
// a ticker costs its construction and nothing per firing. Restarting a
// running ticker moves its queued event in place.
type Ticker struct {
	k       *Kernel
	period  Duration
	fn      func()
	pending *Event // nil exactly when the ticker is stopped
}

// NewTicker creates a stopped ticker; call Start to arm it.
func NewTicker(k *Kernel, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{k: k, period: period, fn: fn}
}

// tickerFire is the static kernel callback shared by every ticker.
func tickerFire(x any) { x.(*Ticker).tick() }

// Start arms the ticker. The first firing happens after initialDelay, and
// subsequent firings every period. Starting a running ticker re-arms it
// from now.
func (t *Ticker) Start(initialDelay Duration) {
	if t.pending != nil {
		t.k.reschedule(t.pending, t.k.now+initialDelay)
		return
	}
	t.pending = t.k.AfterArg(initialDelay, tickerFire, t)
}

func (t *Ticker) tick() {
	// Pooled-event ownership: the event that invoked us has fired and
	// will be recycled; overwrite the reference before running fn so
	// Stop/Start never touch a recycled event. (A stopped ticker never
	// reaches here — Stop removes the pending event.)
	t.pending = t.k.AfterArg(t.period, tickerFire, t)
	t.fn()
}

// Stop disarms the ticker. A stopped ticker can be started again.
func (t *Ticker) Stop() {
	t.pending.Cancel()
	t.pending = nil
}

// Rearm resets the ticker for workspace reuse after a Kernel.Reset: the
// retained event reference is dropped without touching the kernel (the
// event no longer exists) and the ticker returns to its stopped state.
func (t *Ticker) Rearm() { t.pending = nil }

// Running reports whether the ticker is armed.
func (t *Ticker) Running() bool { return t.pending != nil }

// Period reports the ticker's firing interval.
func (t *Ticker) Period() Duration { return t.period }

// SetPeriod changes the interval used for firings scheduled after the next
// one. Used by adaptive retransmission schedules.
func (t *Ticker) SetPeriod(p Duration) {
	if p <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.period = p
}

// Deadline is a single-shot timer that can be pushed into the future, which
// is exactly the behaviour of a lease: each renewal replaces the expiry
// event. Like Ticker, it schedules through a static callback, so arming a
// deadline allocates nothing, and a renewal moves the queued expiry event
// in place.
type Deadline struct {
	k       *Kernel
	fn      func()
	pending *Event // nil exactly when the deadline is unarmed
}

// NewDeadline creates an unarmed deadline that runs fn when it expires.
func NewDeadline(k *Kernel, fn func()) *Deadline {
	return &Deadline{k: k, fn: fn}
}

// deadlineFire is the static kernel callback shared by every deadline.
func deadlineFire(x any) { x.(*Deadline).fire() }

// Set arms (or re-arms) the deadline to fire at absolute time t.
func (d *Deadline) Set(t Time) {
	if d.pending != nil {
		d.k.reschedule(d.pending, t)
		return
	}
	d.pending = d.k.AtArg(t, deadlineFire, d)
}

// SetAfter arms (or re-arms) the deadline to fire dur from now.
func (d *Deadline) SetAfter(dur Duration) { d.Set(d.k.Now() + dur) }

// Clear disarms the deadline.
func (d *Deadline) Clear() {
	d.pending.Cancel()
	d.pending = nil
}

// Rearm drops the retained event reference without touching the kernel,
// for workspace reuse after a Kernel.Reset.
func (d *Deadline) Rearm() { d.pending = nil }

// Armed reports whether the deadline is set and has not fired.
func (d *Deadline) Armed() bool { return d.pending != nil }

// When reports the expiry instant; valid only while Armed.
func (d *Deadline) When() Time {
	if d.pending == nil {
		return 0
	}
	return d.pending.At()
}

func (d *Deadline) fire() {
	// Pooled-event ownership: drop the fired event before fn, so a
	// Set/Clear from inside the callback never touches a recycled event.
	d.pending = nil
	d.fn()
}
