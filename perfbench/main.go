// Command perfbench is the repository's benchmark. It runs one workload
// against the program's public entry points (experiment.Sweep,
// experiment.Run/RunInto with the Attach hooks as the build/advance
// boundary, and the sdlived daemon through live.Client), checks the
// outputs, and prints one JSON result as the last line of standard
// output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer ones. The line before the result is a
// "perfbench: report" line with the environment stamp, every workload
// metric by name with its unit and sample count, the output checks and
// the sim digest. Run it through run.sh, which builds the binaries:
//
//	bash perfbench/run.sh --workload frodo-churn-3k --seed 1 --seconds 20 --trace 0
//
// NOTES.md gives each workload's rationale and the layer → end-to-end
// map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	goBin    string
	sdlived  string
	size     sizes
}

// sizes are the workload dimensions. fullSizes is what the benchmark
// measures; the self-test shrinks them to run in seconds.
type sizes struct {
	sweepRuns    int // runs per (system, λ) point of the paper sweep
	churnUsers   int
	staticUsers  int
	liveUsers    int
	liveClients  int
	liveSetups   int     // batch daemons per run; one more serves the latency metrics
	liveRate     float64 // the fixed open-loop offered rate, ops/s
	liveP99Limit float64 // ms; the capacity ladder's query p99 limit
	liveBatch    int     // ops per closed-loop batch (run_s on live-mixed)
}

var fullSizes = sizes{
	sweepRuns:    30,
	churnUsers:   3000,
	staticUsers:  4000,
	liveUsers:    1000,
	liveClients:  64,
	liveSetups:   8,
	liveRate:     1000,
	liveP99Limit: 50,
	liveBatch:    500,
}

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"paper-sweep":        runPaperSweep,
	"frodo-churn-3k":     runFrodoChurn,
	"frodo-static-4k-s2": runFrodoStatic,
	"live-mixed":         runLiveMixed,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper-sweep|frodo-churn-3k|frodo-static-4k-s2|live-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures, in wall seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for profiles and span dumps")
	flag.StringVar(&cfg.goBin, "go", "go", "go binary, for go tool pprof")
	flag.StringVar(&cfg.sdlived, "sdlived", "", "sdlived binary (live-mixed)")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.size = fullSizes
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing; omitted in the result line.
	N int `json:"n,omitempty"`
}

// check is one output-correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload run produced.
type outcome struct {
	// endToEnd holds the gated metrics (untraced runs), perLayer the
	// traced run's; report holds every workload metric the notes name,
	// printed on the report line in both modes.
	endToEnd  map[string]metric
	perLayer  map[string]metric
	report    map[string]metric
	checks    []check
	attempted int
	failed    int
	digest    string
	// minF is the lowest effectiveness F over a fabric workload's runs.
	minF float64
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]metric{}, perLayer: map[string]metric{}, report: map[string]metric{}, minF: 1}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// setGated stores the gated end-to-end metrics — set-up time, run time
// and peak RSS — and copies them, with ops/ops_failed, to the report.
func (o *outcome) setGated(setup, run, rss metric) {
	o.endToEnd["setup_s"], o.endToEnd["run_s"], o.endToEnd["peak_rss_mb"] = setup, run, rss
	for name, m := range o.endToEnd {
		o.report[name] = m
	}
	o.report["ops"] = metric{Value: float64(o.attempted), Unit: "count"}
	o.report["ops_failed"] = metric{Value: float64(o.failed), Unit: "count"}
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return len(o.checks) > 0
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) print(f io.Writer, cfg config) error {
	rep := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Trace    bool              `json:"trace"`
		Env      envStamp          `json:"env"`
		Digest   string            `json:"sim_digest,omitempty"`
		Metrics  map[string]metric `json:"metrics"`
		Checks   []check           `json:"checks"`
	}{cfg.workload, cfg.seed, cfg.trace, stampEnv(), o.digest, o.report, o.checks}
	buf, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "perfbench: report %s\n", buf)
	for _, c := range o.checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: check %s FAILED: %s\n", c.Name, c.Detail)
		}
	}
	ms := o.endToEnd
	if cfg.trace {
		ms = o.perLayer
	}
	line := resultLine{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for k, m := range ms {
		line.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	buf, err = json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", buf)
	return err
}

// deadline reports when a run that started at start must stop measuring.
func (cfg config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(cfg.seconds * float64(time.Second)))
}
