package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the percentile discipline: a tail percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// nearestRank returns the nearest-rank p-quantile of sorted (the smallest
// sample with at least p of the samples at or below it) and how many
// samples lie beyond it.
func nearestRank(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted) - rank
}

// median returns the nearest-rank median; it needs at least one sample.
func median(sorted []float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("median of no samples")
	}
	v, _ := nearestRank(sorted, 0.5)
	return v, nil
}

// tail returns the nearest-rank p-quantile, failing when fewer than
// minBeyond samples lie beyond it: such a number would be one or two
// outliers, not a percentile.
func tail(sorted []float64, p float64) (float64, error) {
	v, beyond := nearestRank(sorted, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it (need %d)", p*100, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// msSorted converts durations to sorted milliseconds.
func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// Linux).
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns VmHWM, the peak resident set, of process pid ("self"
// for this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/status: %w", pid, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM line", pid)
}

// resetPeakRSS returns freed heap to the OS and restarts this process's
// VmHWM from its current resident set, so a later peakRSSMB covers only
// what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// runtimeSample is this process's cumulative allocation and GC counters.
type runtimeSample struct {
	allocBytes, gcCycles float64
	pause                time.Duration
}

// readRuntime samples the allocation and GC counters: bytes and cycles
// from runtime/metrics, pause time from MemStats (exact, unlike the
// bucketed pause histogram).
func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		pause:      time.Duration(ms.PauseTotalNs),
	}
}

// runtimeValues turns a counter difference over ops into the runtime.*
// per-layer metrics.
func runtimeValues(v map[string]float64, before, after runtimeSample, ops int) {
	n := float64(ops)
	v["runtime.alloc_mb_per_op"] = ratio((after.allocBytes-before.allocBytes)/(1<<20), n)
	v["runtime.gc_cycles_per_op"] = ratio(after.gcCycles-before.gcCycles, n)
	v["runtime.gc_pause_ms_per_op"] = ratio(float64(after.pause-before.pause)/1e6, n)
}
