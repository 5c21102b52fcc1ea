package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The host the benchmark runs on is a shared VM, and two kinds of
// interference move its timings by far more than the median of a run's
// passes can absorb:
//
//   - CPU speed drifts by ±20% over minutes (whole 20 s runs of identical
//     code read 0.62 s or 0.95 s per pass). Every timed pass is therefore
//     preceded by a fixed calibration loop, and reported times are scaled
//     by calibNominal over the run's median calibration time: seconds at a
//     fixed reference CPU speed.
//   - The hypervisor steals the CPU in bursts of a few minutes (up to a
//     quarter of a busy CPU's time). Stolen time is excluded from CPU time
//     but not from wall time, so the wall times reported are measured
//     wall time minus the machine's stolen time over the same interval.
//
// The calibration loop's work never changes, so the scale does not depend
// on the program: a change to the program moves the reported times by the
// same factor as the measured ones. The measured times are printed beside
// them.

// calibNominal is the calibration loop's median CPU time on the reference
// host: a 2-vCPU x86-64 VM, Go 1.24, on which the benchmark was tuned.
const calibNominal = 26 * time.Millisecond

// calibBuf is the calibration loop's 2 MB working set, allocated once.
var calibBuf = make([]uint64, 1<<18)

// calibrate returns the CPU time the calibration loop takes: a chain of
// integer multiply-adds, then pseudo-random updates over calibBuf. It is
// CPU time, not wall time, so that stolen time does not enter it.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuTime(rusageThread)
	var y uint64
	for i := range 15_000_000 {
		y = y*31 + uint64(i)
	}
	x := y | 1
	mask := uint64(len(calibBuf) - 1)
	for range 1_500_000 {
		x = x*6364136223846793005 + 1442695040888963407
		calibBuf[(x>>40)&mask] += x
	}
	return cpuTime(rusageThread) - start
}

// hostScale is the factor that takes the run's times to the reference CPU
// speed, given its calibration times in seconds.
func hostScale(calibs []float64) float64 {
	return calibNominal.Seconds() / median(calibs)
}

// clockTick is the unit of /proc/stat's counters (USER_HZ = 100).
const clockTick = 10 * time.Millisecond

// stolenTime is the CPU time the hypervisor has taken from this machine's
// CPUs so far: the steal column of /proc/stat's "cpu" line, or 0 where
// the kernel does not report it.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * clockTick
}

// stopwatch measures wall time less the time stolen meanwhile.
type stopwatch struct {
	start  time.Time
	stolen time.Duration
}

func startStopwatch() stopwatch { return stopwatch{time.Now(), stolenTime()} }

// elapsed returns the wall time since the stopwatch started and the part
// of it left after taking out stolen time.
func (s stopwatch) elapsed() (wall, unstolen time.Duration) {
	wall = time.Since(s.start)
	return wall, wall - (stolenTime() - s.stolen)
}
