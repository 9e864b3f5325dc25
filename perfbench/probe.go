package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe is a fixed reference computation in the benchmark's own
// code: no repository code runs in it, so no change to the program can
// move it. Every workload runs it between its measured units (live-mixed
// only while no daemon is alive) and scales each unit's time by how fast
// the host ran the probe around it.
// On a shared host the speed of the whole machine drifts by 10–20% over
// tens of seconds (other tenants' load on the shared cores and memory,
// little of it visible as steal), and that drift, not the program,
// decided the spread of unscaled run times between runs. NOTES.md gives
// the measurements.

// probeNominal is the probe's typical time on the 2-CPU Intel Xeon VM
// the benchmark was calibrated on (Go 1.24). A scaled time reads as the
// unit would take on that host when it runs the probe in this time.
const probeNominal = 0.13

// probeWorkers is how many goroutines run the probe at once: one per
// CPU of the host, as the workloads use both (sweep workers, shards, or
// the simulation plus the garbage collector).
const probeWorkers = 2

// probeSink keeps the probe's results live so the compiler keeps its
// work.
var probeSink [probeWorkers]uint64

// probeHost runs the reference computation on every worker at once and
// returns its wall time in seconds. A garbage collection first finishes
// any cycle the program left running, and the probe's memory is mapped
// outside the Go heap and unmapped at the end, so neither the collector
// nor the peak-RSS figures of the units see it.
func probeHost() float64 {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range probeWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeSink[g] = probeWork(uint64(g) + 1)
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// probeWork mixes the kinds of work the simulator does: dependent loads
// across a table larger than the caches (a full-period LCG walk over 16
// MB), a binary min-heap of int64 keys, and hash-table inserts and
// lookups (open addressing).
func probeWork(seed uint64) uint64 {
	const (
		chaseLen  = 1 << 22
		lcgMul    = 0x5851f42d4c957f2d // ≡ 1 mod 4: with an odd increment, full period mod 2^k
		lcgInc    = 0x14057b7ef767814f
		heapLen   = 1 << 17
		tableLen  = 1 << 16
		tableKeys = tableLen / 2
		golden    = 0x9e3779b97f4a7c15
	)
	size := 4*chaseLen + 8*heapLen + 8*tableLen
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("perfbench: host probe: mmap: %v", err))
	}
	defer syscall.Munmap(mem)
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseLen)
	h := unsafe.Slice((*int64)(unsafe.Pointer(&mem[4*chaseLen])), heapLen)[:0]
	table := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[4*chaseLen+8*heapLen])), tableLen)

	for i := range next {
		next[i] = uint32((uint64(i)*lcgMul + lcgInc) & (chaseLen - 1))
	}
	x := uint32(seed)
	for range 700_000 {
		x = next[x]
	}

	r := seed
	for range heapLen {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		h = heapPush(h, int64(r>>1))
	}
	s := uint64(x)
	for len(h) > 0 {
		var v int64
		h, v = heapPop(h)
		s += uint64(v)
	}

	// Keys are odd, so 0 marks an empty slot; half the lookups miss.
	slot := func(k uint64) int {
		i := int(k*golden>>48) & (tableLen - 1)
		for table[i] != 0 && table[i] != k {
			i = (i + 1) & (tableLen - 1)
		}
		return i
	}
	for i := range uint64(tableKeys) {
		k := 2*i*golden | 1
		table[slot(k)] = k
	}
	for i := range uint64(2 * tableKeys) {
		k := 2*i*golden | 1
		if table[slot(k)] == k {
			s++
		}
	}
	return s
}

func heapPush(h []int64, v int64) []int64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []int64) ([]int64, int64) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h, top
}

// hostScale is the factor that scales a time measured between two host
// probes: probeNominal ÷ the mean of the two.
func hostScale(before, after float64) float64 {
	return probeNominal / ((before + after) / 2)
}

// hostScaled scales each unit time by the host's speed around it:
// units[i] ran between probes[i] and probes[i+1], so probes holds one
// more time than units.
func hostScaled(units, probes []float64) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u * hostScale(probes[i], probes[i+1])
	}
	return out
}

// reportHost adds the unscaled run time (run_wall_s, the quiet median of
// the raw unit times) and the host probe's median time (host_probe_s) to
// the report line, beside the scaled run_s.
func (o *outcome) reportHost(units, probes []float64, quiet []bool) {
	wall, n := quietMedian(units, quiet)
	o.report["run_wall_s"] = metric{Value: wall, Unit: "s", N: n}
	o.report["host_probe_s"] = metric{Value: median(probes), Unit: "s", N: len(probes)}
}
