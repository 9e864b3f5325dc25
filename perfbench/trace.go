package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Spans of one run or request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// spans keeps every span in memory until the run ends. A nil *spans
// records nothing, so untraced runs pay one nil check per call site.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpans(on bool) *spans {
	if !on {
		return nil
	}
	return &spans{t0: time.Now()}
}

// add records a finished span and returns its id.
func (s *spans) add(name string, parent, req int64, start, end time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(s.t0).Nanoseconds(), End: end.Sub(s.t0).Nanoseconds()})
	return id
}

// reserve allocates a span id for a parent whose end is not known yet;
// finish fills it in.
func (s *spans) reserve(name string, parent int64) int64 {
	if s == nil {
		return 0
	}
	now := time.Now()
	return s.add(name, parent, 0, now, now)
}

func (s *spans) finish(id int64) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].End = time.Since(s.t0).Nanoseconds()
}

// write dumps the spans as JSON lines.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModules are the layers CPU samples are charged to, in report order.
var cpuModules = []string{"sim", "netsim", "frodo", "upnp", "jini", "discovery", "experiment",
	"metrics", "verify", "obs", "live", "bench", "runtime"}

// moduleOf maps a function name from a pprof trace to its layer, or ""
// when the frame is not this repository's code. Package main is the
// profiled binary's: mainModule names its layer.
func moduleOf(fn, mainModule string) string {
	const root = "repro/"
	if strings.HasPrefix(fn, "main.") {
		return mainModule
	}
	if !strings.HasPrefix(fn, root) {
		return ""
	}
	rest := fn[len(root):]
	if p, ok := strings.CutPrefix(rest, "internal/"); ok {
		pkg, _, _ := strings.Cut(p, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "sim", "netsim", "frodo", "upnp", "jini", "discovery", "experiment", "metrics", "verify", "obs", "live":
			return pkg
		case "core", "harden":
			return "discovery"
		case "stats":
			return "metrics"
		case "trace":
			return "obs"
		default:
			return "experiment"
		}
	}
	return "experiment" // the sdsim facade and the cmd packages
}

// bucketTraces reads `go tool pprof -traces` output and charges each
// sample to the innermost repository frame on its stack; samples with
// no repository frame go to runtime. It returns sample weight per
// module (in the profile's unit, nanoseconds of CPU).
func bucketTraces(r io.Reader, mainModule string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		weight  float64
		mod     string
		inTrace bool
	)
	flush := func() {
		if !inTrace {
			return
		}
		if mod == "" {
			mod = "runtime"
		}
		out[mod] += weight
		inTrace, mod, weight = false, "", 0
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if !inTrace && !strings.HasPrefix(line, " ") {
			continue // header lines (File:, Type:, ...)
		}
		if !inTrace && len(fields) >= 2 {
			w, err := time.ParseDuration(fields[0]) // a CPU sample: "10ms"
			if err != nil {
				continue
			}
			inTrace, weight = true, float64(w)
			mod = moduleOf(fields[1], mainModule)
			continue
		}
		if inTrace && mod == "" && len(fields) >= 1 {
			mod = moduleOf(fields[0], mainModule)
		}
	}
	flush()
	return out, sc.Err()
}

// profiler captures a CPU profile of this process to a file.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(dir, name string) (*profiler, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// cpuShares reads CPU profiles with go tool pprof -traces (which merges
// them) and returns each module's share of the samples; mainModule is
// the layer of the profiled binary's package main.
func cpuShares(goBin, mainModule string, profiles ...string) (map[string]float64, error) {
	cmd := exec.Command(goBin, append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	outp, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	w, err := bucketTraces(strings.NewReader(string(outp)), mainModule)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range w {
		total += v
	}
	shares := map[string]float64{}
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = w[m] / total
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

// addCPUShares stores <module>.cpu_share for every module.
func (o *outcome) addCPUShares(shares map[string]float64) {
	for _, m := range cpuModules {
		o.perLayer[m+".cpu_share"] = metric{Value: shares[m], Unit: "fraction"}
	}
}

// memAcc sums runtime.MemStats differences over the traced pieces of a
// run, leaving out the untraced reference work between them.
type memAcc struct {
	before              runtime.MemStats
	alloc, mallocs, gcs uint64
}

func (m *memAcc) start() { runtime.ReadMemStats(&m.before) }

func (m *memAcc) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.alloc += after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.gcs += uint64(after.NumGC - m.before.NumGC)
}

// record stores the runtime.* per-layer metrics.
func (m *memAcc) record(o *outcome) {
	o.perLayer["runtime.alloc_mb"] = metric{Value: float64(m.alloc) / (1 << 20), Unit: "MB"}
	o.perLayer["runtime.allocs"] = metric{Value: float64(m.mallocs), Unit: "count"}
	o.perLayer["runtime.gc_cycles"] = metric{Value: float64(m.gcs), Unit: "count"}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
