package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/live"
)

// ladderSteps are the capacity ladder's offered rates, as multiples of
// the fixed rate.
var ladderSteps = []float64{1.5, 2, 3, 4, 6, 8}

// runLiveMixed runs the live-mixed workload: batch daemons, each set up
// (setup_s), driven with closed-loop batches (run_s) and stopped, then
// one more daemon for the fixed-rate open loop (the latency metrics) and
// the capacity ladder — or, traced, the daemon's CPU profile and counters
// over the fixed-rate window.
func runLiveMixed(cfg config) (o *outcome, err error) {
	o = newOutcome()
	if cfg.trace {
		o.zeroLayers()
	}
	sz := cfg.size
	fail := &failures{}
	var (
		d      *daemon
		s      *session
		setups []float64
		ops    int64
		peak   float64
	)
	defer func() {
		if s != nil {
			s.close()
		}
		if d != nil {
			d.kill()
		}
	}()
	start := time.Now()
	// bringUp starts daemon i and sets up every client on it: set-up time
	// runs from daemon exec until every client is discovered.
	bringUp := func(i int) error {
		t0 := time.Now()
		if d, err = startDaemon(cfg, i); err != nil {
			return err
		}
		if s, err = newSession(d, fail); err != nil {
			return err
		}
		if err := s.setUp(sz.liveClients); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	// tearDown stops the daemon after noting its peak RSS.
	tearDown := func(name string) {
		peak = max(peak, peakRSSMB(d.cmd.Process.Pid))
		s.close()
		ops += s.ops.Load()
		s = nil
		err := d.stop()
		d = nil
		o.check(name, err == nil, "sdlived exit: %v", err)
	}

	// Closed-loop batches: run_s. The batch daemons share 40% of the run
	// time equally. The host probe runs before the first starts and after
	// each stops, with no daemon alive, and each daemon's batches are
	// scaled by the two probes around it. A traced run measures the second
	// half of each share with spans, for trace.overhead_frac.
	sp := newSpans(cfg.trace)
	stream := &opStream{rng: rand.New(rand.NewSource(cfg.seed)), clients: sz.liveClients}
	share := secDur(cfg.seconds * 0.4 / float64(sz.liveSetups))
	var batches, scaled, tracedBatches []float64
	var quiet []bool
	probes := []float64{probeHost()}
	for i := 0; i < sz.liveSetups; i++ {
		if err := bringUp(i); err != nil {
			return nil, err
		}
		var walls []float64
		tEnd := time.Now().Add(share)
		for len(walls) == 0 || time.Now().Before(tEnd) {
			if cfg.trace && time.Until(tEnd) < share/2 {
				s.sp = sp
				parent := sp.reserve("live.batch", 0)
				w, _ := s.batch(stream, sz.liveBatch, parent)
				sp.finish(parent)
				tracedBatches = append(tracedBatches, w)
				continue
			}
			u := startUnit()
			w, _ := s.batch(stream, sz.liveBatch, 0)
			walls = append(walls, w)
			quiet = append(quiet, u.stop(""))
		}
		tearDown(fmt.Sprintf("batch-daemon-%d-exit", i))
		probes = append(probes, probeHost())
		batches = append(batches, walls...)
		for _, w := range walls {
			scaled = append(scaled, w*hostScale(probes[i], probes[i+1]))
		}
	}
	batchS, quietN := quietMedian(scaled, quiet)
	o.reportHost(batches, probes, quiet)

	// The daemon the latency metrics are measured on. It splits the time
	// left between the fixed-rate window and the ladder; a traced run
	// gives it all to the fixed-rate window.
	if err := bringUp(sz.liveSetups); err != nil {
		return nil, err
	}
	s.sp = sp
	left := max(time.Until(cfg.deadline(start)), time.Second)
	fixedTime, step := left/2, left/2/time.Duration(len(ladderSteps))
	if cfg.trace {
		fixedTime = left
	}

	// The fixed-rate open loop: the latency metrics.
	st0, err := s.stats()
	if err != nil {
		return nil, err
	}
	m0, err := s.scrape()
	if err != nil {
		return nil, err
	}
	alloc0, mallocs0, gc0, err := s.memstats()
	if err != nil {
		return nil, err
	}
	cpu0, ops0, wall0 := d.cpuSeconds(), s.ops.Load(), time.Now()
	profDone := make(chan error, 1)
	profPath := filepath.Join(cfg.outDir, fmt.Sprintf("cpu-%s-%d.pprof", cfg.workload, cfg.seed))
	if cfg.trace {
		go func() { profDone <- s.profile(profPath, max(1, int(fixedTime.Seconds()))) }()
	}
	parent := s.sp.reserve("live.fixed_rate", 0)
	fixed, grew := s.openLoop(stream, sz.liveRate, fixedTime, parent)
	s.sp.finish(parent)
	notify := s.notifyLatencies(fixed)
	wall1 := time.Now()
	cpu1, ops1 := d.cpuSeconds(), s.ops.Load()
	st1, err := s.stats()
	if err != nil {
		return nil, err
	}
	queries := latencies(fixed, opQuery)
	o.report["query_p50_ms"] = metric{Value: quantile(queries, 0.5), Unit: "ms", N: len(queries)}
	o.report["query_p99_ms"] = metric{Value: quantile(queries, 0.99), Unit: "ms", N: len(queries)}
	o.report["notify_p50_ms"] = metric{Value: quantile(notify, 0.5), Unit: "ms", N: len(notify)}
	o.report["notify_p99_ms"] = metric{Value: quantile(notify, 0.99), Unit: "ms", N: len(notify)}
	lookups := latencies(fixed, opLookup)
	o.report["lookup_p50_ms"] = metric{Value: quantile(lookups, 0.5), Unit: "ms", N: len(lookups)}
	late := lateness(fixed)
	o.report["gen_late_p99_ms"] = metric{Value: quantile(late, 0.99), Unit: "ms", N: len(late)}
	o.report["fixed_rate_ops_s"] = metric{Value: sz.liveRate, Unit: "ops/s"}
	// Whether the fixed rate met the limit is a measurement, not an
	// output check: a slow host must not turn a run incorrect.
	holds := !grew && quantile(queries, 0.99) < sz.liveP99Limit
	o.report["fixed_rate_within_limit"] = metric{Value: b2f(holds), Unit: "bool"}

	if cfg.trace {
		if err := <-profDone; err != nil {
			return nil, err
		}
		m1, err := s.scrape()
		if err != nil {
			return nil, err
		}
		alloc1, mallocs1, gc1, err := s.memstats()
		if err != nil {
			return nil, err
		}
		fixedOps := float64(ops1 - ops0)
		o.setLayer("live.server_cpu_us_per_op", (cpu1-cpu0)*1e6/fixedOps)
		o.setLayer("live.lag_growth_ms", (wall1.Sub(wall0).Seconds()-(st1.VirtualSec-st0.VirtualSec)*liveDilation)*1e3)
		o.setLayer("gen.late_ms.p99", quantile(late, 0.99))
		o.setLayer("sim.events", float64(st1.EventsFired-st0.EventsFired))
		o.setLayer("sim.pending_end", m1[`sd_kernel_pending{shard="0"}`])
		o.setLayer("netsim.frames_sent", m1[`sd_frames_sent_total{shard="0"}`]-m0[`sd_frames_sent_total{shard="0"}`])
		o.setLayer("netsim.frames_dropped", m1[`sd_frames_dropped_total{shard="0"}`]-m0[`sd_frames_dropped_total{shard="0"}`])
		o.setLayer("runtime.alloc_mb", (alloc1-alloc0)/(1<<20))
		o.setLayer("runtime.allocs", mallocs1-mallocs0)
		o.setLayer("runtime.gc_cycles", gc1-gc0)
		o.setLayer("trace.overhead_frac", (median(tracedBatches)-median(batches))/median(batches))
		shares, err := cpuShares(cfg.goBin, "live", profPath)
		if err != nil {
			return nil, err
		}
		o.addCPUShares(shares)
	} else {
		// The capacity ladder: the highest offered rate above the fixed
		// one whose query p99 stays under the limit without a growing
		// backlog.
		capacity := 0.0
		if holds {
			capacity = sz.liveRate
		}
		for _, f := range ladderSteps {
			if capacity < sz.liveRate {
				break
			}
			rate := sz.liveRate * f
			smps, grew := s.openLoop(stream, rate, step, 0)
			s.notifyLatencies(smps)
			p99 := quantile(latencies(smps, opQuery), 0.99)
			fmt.Fprintf(os.Stderr, "perfbench: ladder %g ops/s: query p99 %.3f ms, backlog grew %v\n", rate, p99, grew)
			if grew || p99 >= sz.liveP99Limit {
				break
			}
			capacity = rate
		}
		o.report["capacity_ops_s"] = metric{Value: capacity, Unit: "ops/s"}
	}

	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	rep, err := live.NewClientWith(d.addr, s.obs).Oracle()
	if err != nil {
		return nil, err
	}
	o.check("oracle-clean", rep.Attached && rep.Clean, "attached %v, %d violations", rep.Attached, rep.Total)
	if cfg.trace {
		o.setLayer("gateway.ops", float64(st.Ops))
		o.setLayer("gateway.notify_dropped", float64(st.NotifyDropped))
		o.setLayer("live.injections", float64(st.Injections))
		o.setLayer("verify.violations", float64(rep.Total))
	}
	tearDown("daemon-exit")

	o.attempted = int(ops)
	o.failed = int(fail.ops.Load()) + rep.Total
	o.check("no-failed-ops", o.failed == 0, "timeouts %d, refused %d, transport %d, notify misses %d, empty lookups %d, other %d",
		fail.timeout.Load(), fail.refused.Load(), fail.transport.Load(), fail.notifyMiss.Load(), fail.lookupEmpty.Load(), fail.other.Load())
	o.setGated(metric{Value: median(setups), Unit: "s", N: len(setups)}, metric{Value: batchS, Unit: "s", N: quietN},
		metric{Value: peak, Unit: "MB", N: len(setups)})
	o.report["notify_dropped"] = metric{Value: float64(st.NotifyDropped), Unit: "count"}
	return o, sp.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
