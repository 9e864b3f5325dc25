package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload so the self-test runs in seconds.
var tinySizes = sizes{
	sweepRuns:    2,
	churnUsers:   1000, // fewer Users make the F ≥ 0.99 floor a coin toss
	staticUsers:  400,
	liveUsers:    50,
	liveClients:  4,
	liveSetups:   1,
	liveRate:     100,
	liveP99Limit: fullSizes.liveP99Limit,
	liveBatch:    20,
}

// benchmarkJSON reads the metric lists of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the code's metric registry to
// BENCHMARK.json, so a rename in one place cannot drift from the other.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers, names := benchmarkJSON(t)
	for name, unit := range endToEndNames {
		if e2e[name] != unit {
			t.Errorf("end-to-end %s: code says %q, BENCHMARK.json %q", name, unit, e2e[name])
		}
	}
	if len(e2e) != len(endToEndNames) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(e2e), len(endToEndNames))
	}
	for name, unit := range perLayerNames {
		if layers[name] != unit {
			t.Errorf("per-layer %s: code says %q, BENCHMARK.json %q", name, unit, layers[name])
		}
	}
	if len(layers) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(layers), len(perLayerNames))
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(names), len(workloads))
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("workload %s has no runner", n)
		}
	}
}

// TestTinyRuns runs every workload at tiny size, untraced and traced,
// and checks each prints every metric BENCHMARK.json names with its
// unit, passes its output checks, and that the result line has exactly
// the contract's keys.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers, names := benchmarkJSON(t)
	dir := t.TempDir()
	sdlived := filepath.Join(dir, "sdlived")
	build := exec.Command("go", "build", "-o", sdlived, "repro/cmd/sdlived")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sdlived: %v\n%s", err, out)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 2, trace: traced, outDir: dir,
				goBin: goBin, sdlived: sdlived, size: tinySizes}
			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			for _, c := range o.checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", name, traced, c.Name, c.Detail)
				}
			}
			var buf bytes.Buffer
			if err := o.print(&buf, cfg); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", name, err)
			}
			if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
				t.Errorf("%s: result keys %v, want correct/attempted/failed/metrics", name, keys(raw))
			}
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v attempted %d failed %d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if traced {
				sameMetrics(t, name+" traced", res.Metrics, layers)
			} else {
				sameMetrics(t, name, res.Metrics, e2e)
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestBucketTraces charges a canned go tool pprof -traces sample: each
// sample goes to its innermost repository frame, package main to the
// binary's layer, and samples without a repository frame to runtime.
func TestBucketTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := bucketTraces(f, "bench")
	if err != nil {
		t.Fatal(err)
	}
	ms := float64(time.Millisecond)
	want := map[string]float64{
		"sim":       30 * ms, // Kernel.release and eventLess
		"netsim":    10 * ms, // mallocgc and a stdlib sort charged to TCPConn.connect
		"discovery": 10 * ms, // internal/core counts as discovery
		"bench":     10 * ms, // package main of the benchmark binary
		"runtime":   10 * ms, // no repository frame at all
		"metrics":   10 * ms, // internal/stats counts as metrics
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %v, want %v", k, got[k], v)
		}
	}
	if m := moduleOf("main.main", "live"); m != "live" {
		t.Errorf("package main in the daemon's profile went to %q", m)
	}
}

// TestDueTimes checks the open-loop schedule arithmetic: request k is
// due k/rate after the start, and the due count never exceeds the
// schedule.
func TestDueTimes(t *testing.T) {
	if d := dueOffset(0, 1000); d != 0 {
		t.Errorf("request 0 due at %v", d)
	}
	if d := dueOffset(1500, 1000); d != 1500*time.Millisecond {
		t.Errorf("request 1500 at 1000/s due at %v, want 1.5s", d)
	}
	if d := dueOffset(1, 3); d != 333333333*time.Nanosecond {
		t.Errorf("request 1 at 3/s due at %v", d)
	}
	for _, c := range []struct {
		el    time.Duration
		rate  float64
		total int
		want  int64
	}{
		{-time.Millisecond, 1000, 10, 0},
		{0, 1000, 10, 1},                      // request 0 is due at the start
		{999 * time.Microsecond, 1000, 10, 1}, // request 1 is due at 1ms
		{time.Millisecond, 1000, 10, 2},
		{time.Hour, 1000, 10, 10}, // capped at the schedule
	} {
		if got := dueCount(c.el, c.rate, c.total); got != c.want {
			t.Errorf("dueCount(%v, %v, %d) = %d, want %d", c.el, c.rate, c.total, got, c.want)
		}
	}
	flat := []float64{3, 0, 5, 0, 2}
	if backlogGrew(flat, flat) {
		t.Error("a backlog of transient spikes counted as growth")
	}
	if !backlogGrew([]float64{1, 2, 3, 4}, []float64{10, 12, 14, 16}) {
		t.Error("a climbing backlog did not count as growth")
	}
}

// TestSpansNil checks untraced runs record nothing and pay nothing.
func TestSpansNil(t *testing.T) {
	var sp *spans
	id := sp.add("x", 0, 1, time.Now(), time.Now())
	sp.finish(sp.reserve("y", id))
	if id != 0 || sp.write("/nonexistent/never") != nil {
		t.Error("nil spans recorded something")
	}
}

// TestHostScaled checks the bracketing arithmetic: a unit is scaled by
// the mean of the probe before it and the probe after it.
func TestHostScaled(t *testing.T) {
	got := hostScaled([]float64{1, 2}, []float64{probeNominal, probeNominal, 2 * probeNominal})
	want := []float64{1, 2 / 1.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("scaled unit %d = %v, want %v", i, got[i], want[i])
		}
	}
	if p := probeHost(); !(p > 0) {
		t.Errorf("host probe took %v s", p)
	}
}
