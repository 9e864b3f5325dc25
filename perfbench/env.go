package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp names the machine and code a result was measured on.
type envStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the git revision the binary was built from; outside a
	// git checkout it is "src:" plus a hash of the Go sources.
	Commit string `json:"commit"`
}

func stampEnv() envStamp {
	return envStamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "src:" + sourceHash(".")
}

// sourceHash hashes the Go sources and module files under root, in path
// order, skipping hidden directories (the build output among them).
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// unitMeter logs one measured unit to standard error: its wall time,
// this process's CPU time and the host's steal time over it, so a slow
// unit can be told apart from a host that was busy elsewhere.
type unitMeter struct {
	wall  time.Time
	cpu   time.Duration
	steal float64
}

func startUnit() unitMeter {
	return unitMeter{wall: time.Now(), cpu: processCPU(), steal: hostSteal()}
}

// stop logs the unit (unless format is empty) and reports whether the
// host was quiet over it: the hypervisor stole less than maxStealFrac
// of the host's CPU time.
func (u unitMeter) stop(format string, args ...any) (quiet bool) {
	wall := time.Since(u.wall).Seconds()
	steal := hostSteal() - u.steal
	frac := steal / (wall * float64(runtime.NumCPU()))
	if format != "" {
		fmt.Fprintf(os.Stderr, "perfbench: unit %s: wall %.3f s, cpu %.3f s, host steal %.2f s (%.1f%%)\n",
			fmt.Sprintf(format, args...), wall, (processCPU() - u.cpu).Seconds(), steal, 100*frac)
	}
	return frac < maxStealFrac
}

// maxStealFrac is the share of the host's CPU time the hypervisor may
// steal during a unit before the unit's timing is set aside. On a 2-CPU
// Intel Xeon VM, steal episodes of 8–18% last minutes and slow a unit by
// up to 2×; quiet units read within a few percent of each other.
const maxStealFrac = 0.03

// quietMedian is the median of the values measured on a quiet host,
// or of all values when fewer than minQuiet were.
func quietMedian(vals []float64, quiet []bool) (med float64, n int) {
	const minQuiet = 3
	var q []float64
	for i, v := range vals {
		if quiet[i] {
			q = append(q, v)
		}
	}
	if len(q) < minQuiet {
		q = vals
	}
	return median(q), len(q)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the steal time of all CPUs from /proc/stat, seconds.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100 // USER_HZ
}

// resetPeakRSS starts a fresh peak-RSS window for this process: it
// collects garbage, returns the freed memory to the OS, then writes 5 to
// /proc/self/clear_refs, which resets VmHWM to the current RSS. A unit's
// peak then does not include garbage the previous unit left behind.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reset peak RSS: %v\n", err)
	}
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MB; pid 0
// means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = filepath.Join("/proc", strconv.Itoa(pid), "status")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			for _, f := range strings.Fields(v) {
				if n, err := strconv.ParseFloat(f, 64); err == nil {
					kb = n
					break
				}
			}
			return kb / 1024
		}
	}
	return 0
}
