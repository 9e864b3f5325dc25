package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// paperMPrime is the zero-failure effort m′ the paper reports per
// system (Table 5), in experiment.Systems() order.
var paperMPrime = map[experiment.System]int{
	experiment.UPnP: 15, experiment.Jini1: 7, experiment.Jini2: 14,
	experiment.Frodo3P: 7, experiment.Frodo2P: 7,
}

// --- digests -------------------------------------------------------

// digest hashes simulated statistics. Two runs of the same inputs give
// the same digest exactly when every hashed statistic is bit-identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) i(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) f(v float64) { d.i(int64(math.Float64bits(v))) }

func (d *digest) b(v bool) {
	if v {
		d.i(1)
	} else {
		d.i(0)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// sweepCurves is the per-system aggregate a sweep produces.
type sweepCurves struct {
	mprime map[experiment.System]int
	points map[experiment.System][]metrics.Point
}

func fromSweep(res experiment.SweepResult) sweepCurves {
	c := sweepCurves{mprime: res.MPrime, points: map[experiment.System][]metrics.Point{}}
	for sys, cv := range res.Curves {
		c.points[sys] = cv.Points
	}
	return c
}

// digest covers every F/R/E/G cell and m′ of every system.
func (c sweepCurves) digest() string {
	d := newDigest()
	for _, sys := range experiment.Systems() {
		d.i(int64(c.mprime[sys]))
		for _, p := range c.points[sys] {
			d.f(p.Lambda)
			d.i(int64(p.Runs))
			d.f(p.Responsiveness)
			d.f(p.Effectiveness)
			d.f(p.Efficiency)
			d.f(p.Degradation)
			d.f(p.EffectivenessCI)
		}
	}
	return d.sum()
}

// check verifies the seed-independent paper invariants: m′ equals the
// paper's 15/7/14/7/7 and F = 1 at λ = 0 for every system.
func (c sweepCurves) check() error {
	for _, sys := range experiment.Systems() {
		if got, want := c.mprime[sys], paperMPrime[sys]; got != want {
			return fmt.Errorf("%v: m′ = %d, paper says %d", sys, got, want)
		}
		pts := c.points[sys]
		if len(pts) == 0 || pts[0].Lambda != 0 || pts[0].Effectiveness != 1 {
			return fmt.Errorf("%v: F at λ=0 is not 1.000", sys)
		}
	}
	return nil
}

// runDigest covers one run's result and its fired-event count.
func runDigest(res metrics.RunResult, fired uint64) string {
	d := newDigest()
	d.i(res.Seed)
	d.i(int64(res.ChangeAt))
	d.i(int64(res.Deadline))
	d.i(int64(res.Effort))
	d.i(int64(res.TotalDiscoverySends))
	d.i(int64(res.TotalTransport))
	d.i(int64(fired))
	for _, u := range res.Users {
		d.i(int64(u.User))
		d.b(u.Reached)
		d.i(int64(u.At))
		d.b(u.Excluded)
	}
	return d.sum()
}

// --- paper-sweep ---------------------------------------------------

func sweepParams(base int64, runs int) experiment.Params {
	p := experiment.DefaultParams()
	p.Runs = runs
	p.BaseSeed = base
	return p
}

// sweepWorkers is the sweep's worker pool: the host's two CPUs.
const sweepWorkers = 2

// timedSweep runs one §5 sweep through experiment.Sweep and returns its
// wall time and the time to its first completed run.
func timedSweep(base int64, runs int) (sweepCurves, float64, float64, int) {
	var first time.Time
	total := 0
	t0 := time.Now()
	res := experiment.Sweep(experiment.SweepConfig{
		Systems: experiment.Systems(),
		Params:  sweepParams(base, runs),
		Workers: sweepWorkers,
		Progress: func(done, n int) {
			if done == 1 {
				first = time.Now()
			}
			total = n
		},
	})
	wall := time.Since(t0).Seconds()
	return fromSweep(res), wall, first.Sub(t0).Seconds(), total
}

func runPaperSweep(cfg config) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		return o, tracePaperSweep(cfg, o)
	}
	start := time.Now()
	end := cfg.deadline(start)
	var walls, firsts, probes []float64
	var quiet []bool
	timedRuns := 0
	peak := 0.0
	// Sweep 0 is the warm-up (pool and workspace growth): checked, and
	// counted in set-up time and peak RSS, but not in run_s. The host
	// probe runs after every sweep, so each timed sweep is bracketed.
	for i := 0; i <= 1 || time.Now().Before(end); i++ {
		resetPeakRSS()
		u := startUnit()
		curves, wall, first, n := timedSweep(cfg.seed+int64(i), cfg.size.sweepRuns)
		rss := peakRSSMB(0)
		peak = max(peak, rss)
		q := u.stop("sweep %d base %d first run %.5f s peak %.1f MB", i, cfg.seed+int64(i), first, rss)
		firsts = append(firsts, first)
		o.attempted += n
		if err := curves.check(); err != nil {
			o.failed += n
			o.check(fmt.Sprintf("paper-invariants[base=%d]", cfg.seed+int64(i)), false, "%v", err)
		}
		probes = append(probes, probeHost())
		if i == 0 {
			o.digest = curves.digest()
			continue
		}
		walls = append(walls, wall)
		quiet = append(quiet, q)
		timedRuns += n
	}
	o.check("paper-invariants", o.failed == 0, "m′ = 15/7/14/7/7 and F(λ=0) = 1 on %d sweeps", len(firsts))
	runS, quietN := quietMedian(hostScaled(walls, probes), quiet)
	o.setGated(metric{Value: median(firsts), Unit: "s", N: len(firsts)}, metric{Value: runS, Unit: "s", N: quietN},
		metric{Value: peak, Unit: "MB", N: len(firsts)})
	o.reportHost(walls, probes, quiet)
	o.report["sweep_runs_per_s"] = metric{Value: float64(timedRuns) / sum(walls), Unit: "runs/s", N: len(walls)}
	return o, nil
}

// sweepReplay is what one traced replay of a sweep measured.
type sweepReplay struct {
	curves             sweepCurves
	builds, advances   []float64 // per run, seconds
	events, pendingEnd uint64
}

// replaySweep re-runs a sweep's cells through experiment.RunInto, one
// Workspace per worker and jobs in Sweep's cell order, with spans around
// each run split at the Attach hook. Aggregation mirrors Sweep's, so
// the digest must equal the untraced sweep's.
func replaySweep(base int64, runs int, sp *spans, reg *obs.Registry, parent int64) sweepReplay {
	params := sweepParams(base, runs)
	systems := experiment.Systems()
	type job struct {
		sys     experiment.System
		li, run int
		req     int64
	}
	type result struct {
		job
		res             metrics.RunResult
		build, advance  float64
		fired, pendingE uint64
	}
	jobs := make(chan job)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := experiment.NewWorkspace()
			ws.TrustOptions()
			for j := range jobs {
				var attached time.Time
				var k *sim.Kernel
				t0 := time.Now()
				res := experiment.RunInto(ws, experiment.RunSpec{
					System:    j.sys,
					Lambda:    params.Lambdas[j.li],
					Seed:      experiment.SeedFor(params.BaseSeed, j.sys, j.li, j.run),
					Params:    params,
					Telemetry: reg,
					Attach: func(sc *experiment.Scenario) {
						attached = time.Now()
						k = sc.K
					},
				})
				t1 := time.Now()
				id := sp.add("experiment.RunInto", parent, j.req, t0, t1)
				sp.add("experiment.build", id, j.req, t0, attached)
				sp.add("experiment.advance", id, j.req, attached, t1)
				results <- result{job: j, res: res, build: attached.Sub(t0).Seconds(),
					advance: t1.Sub(attached).Seconds(), fired: k.Fired(), pendingE: uint64(k.Pending())}
			}
		}()
	}
	go func() {
		req := int64(0)
		for _, sys := range systems {
			for li := range params.Lambdas {
				for r := 0; r < params.Runs; r++ {
					req++
					jobs <- job{sys: sys, li: li, run: r, req: req}
				}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	cells := map[experiment.System][]*metrics.Cell{}
	for _, sys := range systems {
		cells[sys] = make([]*metrics.Cell, len(params.Lambdas))
		for li, l := range params.Lambdas {
			cells[sys][li] = metrics.NewCell(l, params.Runs)
		}
	}
	var out sweepReplay
	for r := range results {
		cells[r.sys][r.li].AddResult(r.run, r.res)
		out.builds = append(out.builds, r.build)
		out.advances = append(out.advances, r.advance)
		out.events += r.fired
		out.pendingEnd += r.pendingE
	}
	// Sweep's aggregation: m′ from the λ=0 cell, m the minimum over
	// systems, then every point against both.
	out.curves = sweepCurves{mprime: map[experiment.System]int{}, points: map[experiment.System][]metrics.Point{}}
	m := math.MaxInt
	for _, sys := range systems {
		mp := experiment.PaperMPrime(sys)
		if params.Lambdas[0] == 0 && cells[sys][0].Runs() > 0 {
			mp = cells[sys][0].MinPositiveEffort()
		}
		out.curves.mprime[sys] = mp
		m = min(m, mp)
	}
	for _, sys := range systems {
		for li := range params.Lambdas {
			out.curves.points[sys] = append(out.curves.points[sys], cells[sys][li].Point(m, out.curves.mprime[sys]))
		}
	}
	return out
}
