package main

import (
	"strconv"

	"repro/internal/obs"
)

// endToEndNames are the gated metrics every untraced run reports, and
// perLayerNames (with the <module>.cpu_share family) the ones every
// traced run reports; BENCHMARK.json lists the same names, which the
// self-test checks. A per-layer metric of a layer the workload does not
// run (the shard barrier of a single fabric, the gateway of a simulated
// run) reads 0.
var endToEndNames = map[string]string{
	"setup_s":     "s",
	"run_s":       "s",
	"peak_rss_mb": "MB",
}

var perLayerNames = map[string]string{
	"experiment.build_s":        "s",
	"experiment.advance_s":      "s",
	"experiment.build_ms.p50":   "ms",
	"experiment.advance_ms.p50": "ms",
	"experiment.runs":           "count",
	"sim.events":                "count",
	"sim.pending_end":           "count",
	"sim.ns_per_event":          "ns",
	"netsim.frames_sent":        "count",
	"netsim.frames_dropped":     "count",
	"netsim.cross_frames":       "count",
	"shard.busy_s":              "s",
	"shard.stall_s":             "s",
	"shard.occupancy":           "fraction",
	"shard.windows":             "count",
	"runtime.alloc_mb":          "MB",
	"runtime.allocs":            "count",
	"runtime.gc_cycles":         "count",
	"live.server_cpu_us_per_op": "us",
	"live.lag_growth_ms":        "ms",
	"live.injections":           "count",
	"gateway.ops":               "count",
	"gateway.notify_dropped":    "count",
	"gen.late_ms.p99":           "ms",
	"trace.overhead_frac":       "fraction",
	"verify.overhead_frac":      "fraction",
	"obs.overhead_frac":         "fraction",
	"verify.violations":         "count",
}

func init() {
	for _, m := range cpuModules {
		perLayerNames[m+".cpu_share"] = "fraction"
	}
}

// zeroLayers starts a traced outcome with every per-layer metric at 0.
func (o *outcome) zeroLayers() {
	for name, unit := range perLayerNames {
		o.perLayer[name] = metric{Unit: unit}
	}
}

// setLayer stores one per-layer value under its registered unit.
func (o *outcome) setLayer(name string, v float64) {
	unit, ok := perLayerNames[name]
	if !ok {
		panic("perfbench: unregistered per-layer metric " + name)
	}
	o.perLayer[name] = metric{Value: v, Unit: unit}
}

// fabricCounters reads the frame and barrier series a run's telemetry
// registry holds, summed over shards.
func (o *outcome) fabricCounters(reg *obs.Registry, shards int) {
	var sent, dropped, cross uint64
	for s := 0; s < shards; s++ {
		l := strconv.Itoa(s)
		sent += reg.Counter("sd_frames_sent_total", "shard", l).Load()
		dropped += reg.Counter("sd_frames_dropped_total", "shard", l).Load()
	}
	o.setLayer("netsim.frames_sent", float64(sent))
	o.setLayer("netsim.frames_dropped", float64(dropped))
	if shards < 2 {
		return
	}
	// Registering again returns the handles the run filled.
	fm := obs.NewFabricMetrics(reg, shards)
	var busy, stall uint64
	occ := 1.0
	for _, sm := range fm.Shards {
		cross += sm.CrossIn.Load()
		busy += sm.Busy.Load()
		stall += sm.Stall.Load()
		occ = min(occ, sm.Occupancy())
	}
	o.setLayer("netsim.cross_frames", float64(cross))
	o.setLayer("shard.busy_s", float64(busy)/1e9)
	o.setLayer("shard.stall_s", float64(stall)/1e9)
	o.setLayer("shard.occupancy", occ)
	o.setLayer("shard.windows", float64(fm.Windows.Load()))
}
