package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/verify"
)

// fabricSpec is the FRODO 2P scale scenario of the fabric workloads:
// 3 s infrastructure boot spacing, 2400 virtual s, the change at
// U[100 s, 600 s], a 20 s announce period, λ = 0. With churn it adds
// Poisson churn (departures 0.2, mean absence 200 s, N/50 arrivals) and
// a bisect partition from 400 s to 700 s.
func fabricSpec(users, shards int, churn bool, seed int64) experiment.RunSpec {
	p := experiment.DefaultParams()
	p.Topology = experiment.Topology{Users: users, BootSpacing: 3 * sim.Second}
	p.RunDuration = 2400 * sim.Second
	p.ChangeMin, p.ChangeMax = 100*sim.Second, 600*sim.Second
	if churn {
		p.Churn = experiment.Churn{Departures: 0.2, MeanAbsence: 200 * sim.Second, Arrivals: float64(users) / 50}
		p.Partitions = []netsim.Partition{{Start: 400 * sim.Second, Duration: 300 * sim.Second, Bisect: true}}
	}
	return experiment.RunSpec{
		System: experiment.Frodo2P,
		Lambda: 0,
		Seed:   seed,
		Params: p,
		Opts:   experiment.Options{Frodo: func(c *frodo.Config) { c.AnnouncePeriod = 20 * sim.Second }},
		Shards: shards,
	}
}

// fabricRun is one timed experiment.Run of a fabric spec.
type fabricRun struct {
	res            metrics.RunResult
	setup, advance float64 // seconds: Run call → Attach hook → return
	fired          uint64
	pending        int
}

func (r fabricRun) digest() string { return runDigest(r.res, r.fired) }

// timedRun runs spec, timing the build (the Run call up to the Attach
// hook) apart from the advance (the hook up to Run's return). observe,
// when set, runs the spec instead of experiment.Run (verify.ObserveRun).
func timedRun(spec experiment.RunSpec, observe func(experiment.RunSpec) metrics.RunResult) fabricRun {
	var attached time.Time
	var k *sim.Kernel
	var ss *experiment.ShardSet
	if spec.Shards >= 2 {
		spec.AttachSharded = func(s *experiment.ShardSet) { attached, ss = time.Now(), s }
	} else {
		spec.Attach = func(sc *experiment.Scenario) { attached, k = time.Now(), sc.K }
	}
	if observe == nil {
		observe = experiment.Run
	}
	t0 := time.Now()
	res := observe(spec)
	t1 := time.Now()
	r := fabricRun{res: res, setup: attached.Sub(t0).Seconds(), advance: t1.Sub(attached).Seconds()}
	if ss != nil {
		r.fired = ss.Fired()
		for s := 0; s < ss.Shards(); s++ {
			r.pending += ss.ShardScenario(s).K.Pending()
		}
	} else {
		r.fired = k.Fired()
		r.pending = k.Pending()
	}
	return r
}

// setupProbes is how many extra topology builds a fabric run times, so
// setup_s is a median over many builds, not over the few full runs.
const setupProbes = 16

// abortRun is the panic value probeSetup's Attach hook stops a run with.
type abortRun struct{}

// probeSetup times experiment.Run from the call to the Attach hook — the
// topology build — and abandons the run there. Run's deferred clean-up
// (the workspace pool put, ShardSet.Close) runs as the panic unwinds.
func probeSetup(spec experiment.RunSpec) (secs float64) {
	var attached time.Time
	if spec.Shards >= 2 {
		spec.AttachSharded = func(*experiment.ShardSet) { attached = time.Now(); panic(abortRun{}) }
	} else {
		spec.Attach = func(*experiment.Scenario) { attached = time.Now(); panic(abortRun{}) }
	}
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortRun); !ok {
				panic(r)
			}
			secs = attached.Sub(t0).Seconds()
		}
	}()
	experiment.Run(spec)
	panic("perfbench: Attach hook never ran")
}

// effectiveness is F of one run: the share of measured Users (not
// churned out at the end) that reached the changed version.
func effectiveness(res metrics.RunResult) (f float64, measured int) {
	reached := 0
	for _, u := range res.Users {
		if u.Excluded {
			continue
		}
		measured++
		if u.Reached {
			reached++
		}
	}
	if measured == 0 {
		return 0, 0
	}
	return float64(reached) / float64(measured), measured
}

// fabricWorkload describes one of the two fabric workloads.
type fabricWorkload struct {
	users  func(sizes) int
	shards int
	churn  bool
}

var (
	churnWorkload  = fabricWorkload{users: func(s sizes) int { return s.churnUsers }, shards: 1, churn: true}
	staticWorkload = fabricWorkload{users: func(s sizes) int { return s.staticUsers }, shards: 2}
)

func runFrodoChurn(cfg config) (*outcome, error)  { return runFabric(cfg, churnWorkload) }
func runFrodoStatic(cfg config) (*outcome, error) { return runFabric(cfg, staticWorkload) }

func (w fabricWorkload) spec(cfg config, i int) experiment.RunSpec {
	return fabricSpec(w.users(cfg.size), w.shards, w.churn, cfg.seed+int64(i))
}

// churnMinF is the effectiveness floor of the churn workload. Under
// churn a User that rejoins shortly before the deadline may not have
// rediscovered the service by then (about one in 5000 on some seeds), so
// F = 1 is not an invariant there; on the static fabric it is.
const churnMinF = 0.99

// checkRun applies the workload's output check to one run: the measured
// Users reached the changed version (F = 1 static, F ≥ churnMinF under
// churn).
func (w fabricWorkload) checkRun(o *outcome, sz sizes, r fabricRun) {
	o.attempted++
	f, measured := effectiveness(r.res)
	want := 1.0
	if w.churn {
		want = churnMinF
	}
	o.minF = min(o.minF, f)
	if f < want || measured == 0 {
		o.failed++
		o.check(fmt.Sprintf("F[seed=%d]", r.res.Seed), false, "F = %.4f over %d measured Users, want ≥ %g", f, measured, want)
	}
	if !w.churn && measured != w.users(sz) {
		o.failed++
		o.check(fmt.Sprintf("users[seed=%d]", r.res.Seed), false, "%d Users measured, want %d", measured, w.users(sz))
	}
}

func runFabric(cfg config, w fabricWorkload) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		return o, traceFabric(cfg, w, o)
	}
	start := time.Now()
	end := cfg.deadline(start)
	var setups, advances, probes []float64
	var quiet []bool
	peak := 0.0
	for i := 0; i < setupProbes; i++ {
		setups = append(setups, probeSetup(w.spec(cfg, i)))
	}
	// Run 0 is the warm-up: the first full run of a process pays for heap
	// growth, so it is checked, gives the digest and counts towards the
	// peak RSS, but its times are left out of the medians. The host probe
	// runs after every run, so each timed run is bracketed by two.
	for i := 0; i <= 1 || time.Now().Before(end); i++ {
		resetPeakRSS()
		u := startUnit()
		r := timedRun(w.spec(cfg, i), nil)
		rss := peakRSSMB(0)
		peak = max(peak, rss)
		q := u.stop("run %d seed %d setup %.4f s advance %.4f s peak %.1f MB", i, r.res.Seed, r.setup, r.advance, rss)
		w.checkRun(o, cfg.size, r)
		probes = append(probes, probeHost())
		if i == 0 {
			o.digest = r.digest()
			continue
		}
		quiet = append(quiet, q)
		setups = append(setups, r.setup)
		advances = append(advances, r.advance)
	}
	o.check("users-consistent", o.failed == 0, "lowest F %.4f over %d runs", o.minF, o.attempted)
	o.report["F_min"] = metric{Value: o.minF, Unit: "fraction"}
	runS, n := quietMedian(hostScaled(advances, probes), quiet)
	o.setGated(metric{Value: median(setups), Unit: "s", N: len(setups)}, metric{Value: runS, Unit: "s", N: n},
		metric{Value: peak, Unit: "MB", N: o.attempted})
	o.reportHost(advances, probes, quiet)
	return o, nil
}

// traceFabric is the traced variant: an untraced reference run, then
// the same seed with spans, the telemetry registry and a CPU profile —
// whose digest must match — and, on the churn workload, the observer-
// cost probes (bare, oracle via verify.ObserveRun, telemetry only).
func traceFabric(cfg config, w fabricWorkload, o *outcome) error {
	start := time.Now()
	o.zeroLayers()
	sp := newSpans(true)
	reg := obs.NewRegistry()
	spec := w.spec(cfg, 0)

	bare := timedRun(spec, nil)
	w.checkRun(o, cfg.size, bare)
	o.digest = bare.digest()

	prof, err := startProfile(cfg.outDir, fmt.Sprintf("cpu-%s-%d.pprof", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	var mem memAcc
	mem.start()
	traced := spec
	traced.Telemetry = reg
	t0 := time.Now()
	tr := timedRun(traced, nil)
	t1 := time.Now()
	mem.stop()
	if err := prof.stop(); err != nil {
		return err
	}
	root := sp.add("experiment.Run", 0, 1, t0, t1)
	sp.add("experiment.build", root, 1, t0, t0.Add(secDur(tr.setup)))
	sp.add("experiment.advance", root, 1, t0.Add(secDur(tr.setup)), t1)
	w.checkRun(o, cfg.size, tr)
	o.check("traced-digest", tr.digest() == bare.digest(), "traced %s, untraced %s", tr.digest(), bare.digest())
	if tr.digest() != bare.digest() {
		o.failed++
	}

	o.setLayer("experiment.build_s", tr.setup)
	o.setLayer("experiment.advance_s", tr.advance)
	o.setLayer("experiment.build_ms.p50", tr.setup*1e3)
	o.setLayer("experiment.advance_ms.p50", tr.advance*1e3)
	o.setLayer("experiment.runs", 1)
	o.setLayer("sim.events", float64(tr.fired))
	o.setLayer("sim.pending_end", float64(tr.pending))
	if tr.fired > 0 {
		o.setLayer("sim.ns_per_event", tr.advance*1e9/float64(tr.fired))
	}
	o.fabricCounters(reg, w.shards)
	mem.record(o)
	shares, err := cpuShares(cfg.goBin, "bench", prof.path)
	if err != nil {
		return err
	}
	o.addCPUShares(shares)

	// The first run of a process pays for heap growth, so overheads are
	// taken against bare runs made after the traced one. On the churn
	// workload each round adds the observer-cost probes: the oracle via
	// verify.ObserveRun, then telemetry alone. Rounds repeat until the run
	// time is used, and each overhead compares medians.
	var bares, oracles, tels []float64
	violations := 0
	for round := 0; round == 0 || time.Now().Before(cfg.deadline(start)); round++ {
		b := timedRun(spec, nil)
		w.checkRun(o, cfg.size, b)
		bares = append(bares, b.advance)
		if !w.churn {
			continue
		}
		var rep verify.OracleReport
		oracle := timedRun(spec, func(s experiment.RunSpec) metrics.RunResult {
			var res metrics.RunResult
			rep, res = verify.ObserveRun(s, verify.DefaultOracleConfig(s.System))
			return res
		})
		tel := spec
		tel.Telemetry = obs.NewRegistry()
		telRun := timedRun(tel, nil)
		w.checkRun(o, cfg.size, oracle)
		w.checkRun(o, cfg.size, telRun)
		oracles = append(oracles, oracle.advance)
		tels = append(tels, telRun.advance)
		violations = max(violations, rep.Total)
		if oracle.digest() != bare.digest() || telRun.digest() != bare.digest() {
			o.failed++
			o.check(fmt.Sprintf("observer-digest[round=%d]", round), false, "oracle-attached %s, telemetry-attached %s, bare %s",
				oracle.digest(), telRun.digest(), bare.digest())
		}
	}
	base := median(bares)
	o.setLayer("trace.overhead_frac", (tr.advance-base)/base)
	if w.churn {
		o.setLayer("verify.overhead_frac", (median(oracles)-base)/base)
		o.setLayer("obs.overhead_frac", (median(tels)-base)/base)
		o.setLayer("verify.violations", float64(violations))
	}
	o.check("users-consistent", o.failed == 0, "lowest F %.4f over every run", o.minF)
	o.report["F_min"] = metric{Value: o.minF, Unit: "fraction"}
	o.report["ops"] = metric{Value: float64(o.attempted), Unit: "count"}
	o.report["ops_failed"] = metric{Value: float64(o.failed), Unit: "count"}
	return sp.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
}

func secDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracePaperSweep alternates an untraced experiment.Sweep with a traced
// replay of the same base seed through experiment.RunInto until the run
// time is used up. Every replay's digest must equal its sweep's.
func tracePaperSweep(cfg config, o *outcome) error {
	o.zeroLayers()
	sp := newSpans(true)
	reg := obs.NewRegistry()
	var mem memAcc
	var untraced, traced, builds, advances []float64
	var events, pending uint64
	var profiles []string
	end := cfg.deadline(time.Now())
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		base := cfg.seed + int64(i)
		ref, wall, _, n := timedSweep(base, cfg.size.sweepRuns)
		untraced = append(untraced, wall)

		prof, err := startProfile(cfg.outDir, fmt.Sprintf("cpu-%s-%d-%d.pprof", cfg.workload, cfg.seed, i))
		if err != nil {
			return err
		}
		mem.start()
		t0 := time.Now()
		root := sp.reserve("experiment.Sweep.replay", 0)
		r := replaySweep(base, cfg.size.sweepRuns, sp, reg, root)
		sp.finish(root)
		traced = append(traced, time.Since(t0).Seconds())
		mem.stop()
		if err := prof.stop(); err != nil {
			return err
		}
		profiles = append(profiles, prof.path)

		o.attempted += n
		d, want := r.curves.digest(), ref.digest()
		if err := r.curves.check(); err != nil || d != want {
			o.failed += n
			o.check(fmt.Sprintf("replay[base=%d]", base), false, "digest %s vs sweep %s, invariants: %v", d, want, err)
		}
		if i == 0 {
			o.digest = d
		}
		builds = append(builds, r.builds...)
		advances = append(advances, r.advances...)
		events += r.events
		pending += r.pendingEnd
	}
	o.check("replay-digest-and-invariants", o.failed == 0, "%d replays match their sweeps", len(traced))
	units := float64(len(traced))
	o.setLayer("experiment.build_s", sum(builds)/units)
	o.setLayer("experiment.advance_s", sum(advances)/units)
	o.setLayer("experiment.build_ms.p50", median(builds)*1e3)
	o.setLayer("experiment.advance_ms.p50", median(advances)*1e3)
	o.setLayer("experiment.runs", float64(len(builds)))
	o.setLayer("sim.events", float64(events))
	o.setLayer("sim.pending_end", float64(pending)/float64(len(builds)))
	if events > 0 {
		o.setLayer("sim.ns_per_event", sum(advances)*1e9/float64(events))
	}
	o.fabricCounters(reg, 1)
	mem.record(o)
	o.setLayer("trace.overhead_frac", (median(traced)-median(untraced))/median(untraced))
	shares, err := cpuShares(cfg.goBin, "bench", profiles...)
	if err != nil {
		return err
	}
	o.addCPUShares(shares)
	o.report["ops"] = metric{Value: float64(o.attempted), Unit: "count"}
	o.report["ops_failed"] = metric{Value: float64(o.failed), Unit: "count"}
	return sp.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
}
