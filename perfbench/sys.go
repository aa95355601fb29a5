package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set (Linux: 5 written to /proc/self/clear_refs), so the next
// peakRSSMB is the peak of what runs in between. Where the kernel does
// not allow it, peakRSSMB stays the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in megabytes since
// the last resetPeakRSS: the status file's VmHWM, or ru_maxrss (peak
// since start; Linux reports it in kilobytes) where that is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcSnap is the Go runtime's allocation and collection counters.
type gcSnap struct {
	alloc   uint64
	cycles  uint32
	pauseNS uint64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{alloc: ms.TotalAlloc, cycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// since reports the counters' growth from an earlier snapshot as
// go.alloc_mb, go.gc_cycles and go.gc_pause_ms.
func (s gcSnap) since(prev gcSnap) map[string]float64 {
	return map[string]float64{
		"go.alloc_mb":    float64(s.alloc-prev.alloc) / 1e6,
		"go.gc_cycles":   float64(s.cycles - prev.cycles),
		"go.gc_pause_ms": float64(s.pauseNS-prev.pauseNS) / 1e6,
	}
}
