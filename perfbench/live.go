package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/live"
)

// The live-mixed workload: sdlived serving FRODO 2P with 1000 Users at
// dilation 0.002, the oracle attached (the daemon's default), single
// fabric; one generator process owning liveClients logical clients over
// at most two keep-alive connections.
const (
	liveDilation = 0.002
	liveConns    = 2
	// Op mix in percent: query, update, lookup.
	mixQuery, mixUpdate = 80, 15
	// notifyGrace is how long after a phase ends an update's pushed
	// notification may still arrive before it counts as missed.
	notifyGrace = 5 * time.Second
	reqTimeout  = 5 * time.Second
	attempts    = 3
)

type opKind int

const (
	opQuery opKind = iota
	opUpdate
	opLookup
)

func (k opKind) String() string { return [...]string{"query", "update", "lookup"}[k] }

// liveOp is one scheduled request.
type liveOp struct {
	kind   opKind
	client int
}

// opStream draws the seeded request sequence: the op mix and which
// client issues each request.
type opStream struct {
	rng     *rand.Rand
	clients int
}

func (s *opStream) next() liveOp {
	p := s.rng.Intn(100)
	k := opLookup
	switch {
	case p < mixQuery:
		k = opQuery
	case p < mixQuery+mixUpdate:
		k = opUpdate
	}
	return liveOp{kind: k, client: s.rng.Intn(s.clients)}
}

// daemon is one running sdlived.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	wait chan error
}

func startDaemon(cfg config, idx int) (*daemon, error) {
	addrFile := filepath.Join(cfg.outDir, fmt.Sprintf("sdlived-%d-%d.addr", os.Getpid(), idx))
	os.Remove(addrFile)
	cmd := exec.Command(cfg.sdlived,
		"-system", "frodo2p",
		"-dilation", strconv.FormatFloat(liveDilation, 'g', -1, 64),
		"-users", strconv.Itoa(cfg.size.liveUsers),
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// If the benchmark dies without stopping it, the daemon goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sdlived: %w", err)
	}
	d := &daemon{cmd: cmd, wait: make(chan error, 1)}
	go func() { d.wait <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = strings.TrimSpace(string(b))
			os.Remove(addrFile)
			return d, nil
		}
		select {
		case err := <-d.wait:
			return nil, fmt.Errorf("sdlived exited before publishing its address: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("sdlived never published its address")
		}
	}
}

// stop asks the daemon to shut down and waits; sdlived exits nonzero
// when its oracle saw a violation.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.wait:
		return err
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("sdlived did not stop on SIGTERM")
	}
}

// kill ends the daemon without a report, for error paths.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill()
	select {
	case <-d.wait:
	case <-time.After(10 * time.Second):
	}
}

// cpuSeconds reads the daemon's utime+stime.
func (d *daemon) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	s := string(data)
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ
}

// failures classifies every failed attempt and operation.
type failures struct {
	timeout, refused, transport, notifyMiss, lookupEmpty, other atomic.Int64
	// ops counts operations that failed after their retries.
	ops atomic.Int64
}

func (f *failures) classify(err error) {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		f.timeout.Add(1)
	case errors.Is(err, syscall.ECONNREFUSED):
		f.refused.Add(1)
	case errors.As(err, &ne):
		f.transport.Add(1)
	default:
		f.other.Add(1)
	}
}

// retry runs one request, up to attempts times.
func (f *failures) retry(do func() error) error {
	var err error
	for a := 0; a < attempts; a++ {
		if err = do(); err == nil {
			return nil
		}
		f.classify(err)
		time.Sleep(time.Duration(a+1) * 10 * time.Millisecond)
	}
	f.ops.Add(1)
	return err
}

// benchClient is one logical client: a registered service, an attached
// and subscribed User, and its notification bookkeeping.
type benchClient struct {
	service string
	manager int
	user    int

	mu      sync.Mutex
	notes   []noteArrival // every pushed notification, in arrival order
	waiters []*notifyWait
}

type noteArrival struct {
	version uint64
	at      time.Time
}

// notifyWait is one update waiting for its pushed notification.
type notifyWait struct {
	version uint64
	due     time.Time
	done    chan time.Time // receives the arrival time, once
}

// arrived records a pushed notification and releases the updates it
// covers: a notification of version v satisfies every update ≤ v.
func (c *benchClient) arrived(v uint64, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notes = append(c.notes, noteArrival{v, at})
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.version <= v {
			w.done <- at
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// expect registers an update of version v; the notification may already
// have arrived (the push can beat the HTTP response).
func (c *benchClient) expect(v uint64, due time.Time) *notifyWait {
	w := &notifyWait{version: v, due: due, done: make(chan time.Time, 1)}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.notes {
		if n.version >= v {
			w.done <- n.at
			return w
		}
	}
	c.waiters = append(c.waiters, w)
	return w
}

// session is the generator's side of one daemon: clients, connections,
// the notification hub and the failure tally.
type session struct {
	d       *daemon
	cl      *live.Client // load traffic: at most liveConns connections
	obs     *http.Client // stats, metrics, oracle, profile: its own connection
	hub     *live.NotifyHub
	clients []*benchClient
	fail    *failures
	stop    chan struct{}
	readers sync.WaitGroup
	ops     atomic.Int64
	sp      *spans
}

func newSession(d *daemon, fail *failures) (*session, error) {
	hub, err := live.NewNotifyHub()
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: liveConns, MaxIdleConnsPerHost: liveConns}
	return &session{
		d:    d,
		cl:   live.NewClientWith(d.addr, &http.Client{Timeout: reqTimeout, Transport: tr}),
		obs:  &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}},
		hub:  hub,
		fail: fail,
		stop: make(chan struct{}),
	}, nil
}

func (s *session) close() {
	close(s.stop)
	s.readers.Wait()
	s.hub.Close()
}

// setUp registers, attaches and subscribes every client over the two
// connections, then polls until every User has discovered its service
// and every service is findable by a lookup.
func (s *session) setUp(n int) error {
	s.clients = make([]*benchClient, n)
	var wg sync.WaitGroup
	errs := make([]error, liveConns)
	for w := 0; w < liveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += liveConns {
				c := &benchClient{service: fmt.Sprintf("BenchSvc-%d", i)}
				err := s.fail.retry(func() (e error) {
					c.manager, e = s.cl.Register(live.ServiceSpec{Device: "BenchDev", Service: c.service})
					return e
				})
				if err == nil {
					err = s.fail.retry(func() (e error) {
						c.user, e = s.cl.Attach(live.ServiceQuery{Service: c.service})
						return e
					})
				}
				if err == nil {
					err = s.fail.retry(func() error { return s.cl.Subscribe(c.user, s.hub.Addr()) })
				}
				s.ops.Add(3)
				if err != nil {
					errs[w] = fmt.Errorf("client %d: %w", i, err)
					return
				}
				s.clients[i] = c
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, c := range s.clients {
		s.readers.Add(1)
		go s.readNotes(c)
	}
	deadline := time.Now().Add(60 * time.Second)
	pending := append([]*benchClient(nil), s.clients...)
	for len(pending) > 0 {
		kept := pending[:0]
		for _, c := range pending {
			var recs []live.Record
			if err := s.fail.retry(func() (e error) { recs, e = s.cl.Query(c.user); return e }); err != nil {
				return err
			}
			s.ops.Add(1)
			if len(recs) == 0 {
				kept = append(kept, c)
			}
		}
		pending = kept
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d clients never discovered their service", len(pending))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A User can discover its service from the Manager's own
	// announcements before the Registry holds the registration; the
	// workload's lookups need the latter, so wait for it too.
	for _, c := range s.clients {
		for {
			var recs []live.Record
			if err := s.fail.retry(func() (e error) {
				recs, e = s.cl.Lookup(live.ServiceQuery{Service: c.service})
				return e
			}); err != nil {
				return err
			}
			s.ops.Add(1)
			if len(recs) > 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("service %s never became findable by lookup", c.service)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func (s *session) readNotes(c *benchClient) {
	defer s.readers.Done()
	ch := s.hub.Chan(c.user)
	for {
		select {
		case n := <-ch:
			c.arrived(n.Version, time.Now())
		case <-s.stop:
			return
		}
	}
}

// sample is one timed request.
type sample struct {
	kind opKind
	lat  time.Duration // from due time to response
	late time.Duration // send start − due time
	wait *notifyWait   // updates: the pushed notification
	ok   bool
}

// do issues one request at its due time and times it from there.
func (s *session) do(op liveOp, due time.Time, req, parent int64) sample {
	start := time.Now()
	c := s.clients[op.client]
	smp := sample{kind: op.kind, late: start.Sub(due)}
	var err error
	switch op.kind {
	case opQuery:
		var recs []live.Record
		err = s.fail.retry(func() (e error) { recs, e = s.cl.Query(c.user); return e })
		if err == nil && len(recs) == 0 {
			err = errors.New("query: discovered service vanished")
			s.fail.other.Add(1)
			s.fail.ops.Add(1)
		}
	case opUpdate:
		var v uint64
		err = s.fail.retry(func() (e error) { v, e = s.cl.Update(c.manager, nil); return e })
		if err == nil {
			smp.wait = c.expect(v, due)
		}
	case opLookup:
		var recs []live.Record
		err = s.fail.retry(func() (e error) { recs, e = s.cl.Lookup(live.ServiceQuery{Service: c.service}); return e })
		if err == nil && len(recs) == 0 {
			err = errors.New("lookup: service not found")
			s.fail.lookupEmpty.Add(1)
			s.fail.ops.Add(1)
		}
	}
	end := time.Now()
	s.ops.Add(1)
	smp.lat = end.Sub(due)
	smp.ok = err == nil
	s.sp.add("live."+op.kind.String(), parent, req, start, end)
	return smp
}

// notifyLatencies waits for every update's notification (up to the
// grace) and returns the due→arrival latencies; misses are counted as
// failed operations.
func (s *session) notifyLatencies(smps []sample) []float64 {
	var out []float64
	grace := time.After(notifyGrace)
	for _, smp := range smps {
		if smp.wait == nil {
			continue
		}
		// Take an arrived notification before looking at the grace
		// timer: once the grace is over the timer channel stays ready,
		// and select would pick between the two at random.
		select {
		case at := <-smp.wait.done:
			out = append(out, ms(at.Sub(smp.wait.due)))
			continue
		default:
		}
		select {
		case at := <-smp.wait.done:
			out = append(out, ms(at.Sub(smp.wait.due)))
		case <-grace:
			s.fail.notifyMiss.Add(1)
			s.fail.ops.Add(1)
			grace = closedTimeChan()
		}
	}
	return out
}

func closedTimeChan() <-chan time.Time {
	ch := make(chan time.Time)
	close(ch)
	return ch
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// batch runs n ops closed-loop over the connections and returns its
// wall time, including the arrival of every update's notification.
func (s *session) batch(stream *opStream, n int, parent int64) (float64, []sample) {
	ops := make([]liveOp, n)
	for i := range ops {
		ops[i] = stream.next()
	}
	smps := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < liveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				smps[i] = s.do(ops[i], time.Now(), int64(i+1), parent)
			}
		}()
	}
	wg.Wait()
	s.notifyLatencies(smps)
	return time.Since(t0).Seconds(), smps
}

// openLoop offers rate ops/s for dur: request k is due at t0 + k/rate
// and is sent then, or as soon as a connection frees up; its latency
// runs from the due time. It returns the samples and whether the
// backlog — requests due but not yet sent — grew across the step.
func (s *session) openLoop(stream *opStream, rate float64, dur time.Duration, parent int64) ([]sample, bool) {
	total := int(rate * dur.Seconds())
	ops := make([]liveOp, total)
	for i := range ops {
		ops[i] = stream.next()
	}
	smps := make([]sample, total)
	var next, sent atomic.Int64
	t0 := time.Now()
	dueAt := func(k int) time.Time { return t0.Add(dueOffset(k, rate)) }
	var wg sync.WaitGroup
	for w := 0; w < liveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= total {
					return
				}
				due := dueAt(k)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent.Add(1)
				smps[k] = s.do(ops[k], due, int64(k+1), parent)
			}
		}()
	}
	// Sample the backlog through the step. A stall of the daemon makes a
	// spike that drains; overload makes the backlog climb, so its mean
	// over the second half of the step exceeds the first half's.
	var halves [2][]float64
	tick := time.NewTicker(backlogEvery)
	for now := range tick.C {
		el := now.Sub(t0)
		if el >= dur {
			break
		}
		b := dueCount(el, rate, total) - sent.Load()
		halves[el*2/dur] = append(halves[el*2/dur], float64(max(b, 0)))
	}
	tick.Stop()
	wg.Wait()
	return smps, backlogGrew(halves[0], halves[1])
}

// backlogEvery is the backlog sampling period of an open-loop step.
const backlogEvery = 5 * time.Millisecond

// backlogGrew reports whether the due-but-unsent count rose across a
// step: its mean over the second half exceeds 1.5× the first half's
// mean by more than the connections in flight.
func backlogGrew(first, second []float64) bool {
	if len(first) == 0 || len(second) == 0 {
		return false
	}
	return sum(second)/float64(len(second)) > 1.5*sum(first)/float64(len(first))+liveConns
}

// dueOffset is request k's due time after the start at rate ops/s.
func dueOffset(k int, rate float64) time.Duration {
	return time.Duration(float64(k) / rate * float64(time.Second))
}

// dueCount is how many of total requests are due by elapsed.
func dueCount(elapsed time.Duration, rate float64, total int) int64 {
	if elapsed < 0 {
		return 0
	}
	n := int64(elapsed.Seconds()*rate) + 1
	return min(n, int64(total))
}

// latencies splits samples by kind, in ms from due time.
func latencies(smps []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range smps {
		if s.kind == kind && s.ok {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func lateness(smps []sample) []float64 {
	out := make([]float64, 0, len(smps))
	for _, s := range smps {
		out = append(out, ms(s.late))
	}
	return out
}

// stats reads /v1/stats over the observation connection.
func (s *session) stats() (live.StatsResponse, error) {
	return live.NewClientWith(s.d.addr, s.obs).Stats()
}

// scrape reads /metrics into series → value.
func (s *session) scrape() (map[string]float64, error) {
	resp, err := s.obs.Get("http://" + s.d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// memstats reads the daemon's runtime.MemStats from /debug/vars.
func (s *session) memstats() (total, mallocs, numGC float64, err error) {
	resp, err := s.obs.Get("http://" + s.d.addr + "/debug/vars")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct {
			TotalAlloc, Mallocs float64
			NumGC               float64
		} `json:"memstats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v.Memstats.TotalAlloc, v.Memstats.Mallocs, v.Memstats.NumGC, err
}

// profile fetches a CPU profile of the daemon covering the next secs,
// on a connection of its own so stats reads are not queued behind it.
func (s *session) profile(path string, secs int) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Timeout: time.Duration(secs+30) * time.Second, Transport: tr}
	resp, err := hc.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", s.d.addr, secs))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile: HTTP %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.ReadFrom(resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
