// Command perfbench is the repository's benchmark. It regenerates three
// workloads through the public functions of lva/internal/* and reports
// host-time and memory metrics of one pass, checking every pass's output.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sweep-exec --seed 42 --seconds 15 --trace 0
//
// Workloads (all at experiments.Parallelism = 1, each pass a closed loop
// after the previous one, on a store of recordings owned by the run):
//
//   - sweep-exec: experiments.RunSweep with output error over all 7
//     kernels at GHB 2 and degree 4 (7 LVA points plus 7 precise
//     baselines, every one a kernel execution). Stresses kernel arithmetic
//     (workloads), the L1 path (memsim, cache) and the approximator
//     (core). Bypasses LVAG decode, the prefetcher and the phase-2 model.
//     --seed reaches it through SweepSpec.Seed.
//   - counter-figs: experiments.RunAll("table1", "fig12", "fig13") on a
//     warm store (footer and exec routes), a counters-only RunSweep the
//     engine replays (replay route, 8 points), and Figure 8's prefetch
//     replay (degrees 4 and 16) of four kernels' recorded streams through
//     memsim.Replay. Stresses the engine's routing, multi-sim LVAG decode,
//     the approximator and the GHB prefetcher. Bypasses the phase-2 model.
//   - fullsys: experiments.FullSystemResult for blackscholes, swaptions
//     and x264 at the precise and degree 0/2/4/8/16 points of Figures 10
//     and 11 (18 fullsys.RunStream replays). Stresses fullsys,
//     noc, coherence, dram and LVAG decode. Bypasses kernel execution and
//     the phase-1 simulator.
//
// counter-figs and fullsys run at the paper's seed (42) whatever --seed
// says: their drivers hard-code it and their outputs are pinned by the
// repository's golden figure hashes.
//
// wall_s, cpu_s and setup_s are medians (of the timed passes, and of five
// set-ups) with the hypervisor's stolen time taken out of wall times, scaled
// to a reference CPU speed by a calibration loop run before each pass (see
// calib.go); alloc_mb and allocs_m are medians as
// measured, and so is peak_rss_mb, each pass's peak resident set from a
// heap returned to the OS.
//
// A pass counts as failed if it returns an error or its output check
// fails: figures against internal/experiments/testdata/figure_hashes.json,
// other outputs against expected.json at seed 42, and at any other seed
// against the run's first pass.
//
// With --trace 0 the last output line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run (see
// layers.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lva/internal/experiments"
)

// setupRounds is how many times a timed run sets up from scratch; setup_s
// is their median.
const setupRounds = 5

// minPasses is the fewest timed passes a run makes, however long they take:
// single passes vary by ±30% on a shared host, the median of nine by far
// less.
const minPasses = 9

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sweep-exec, counter-figs or fullsys")
		seed    = flag.Uint64("seed", experiments.DefaultSeed, "input seed (sweep-exec only; figure workloads run at 42)")
		seconds = flag.Int("seconds", 20, "how long to keep making timed passes")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "repository checkout to run in")
		update  = flag.Bool("update-expected", false, "rewrite expected.json from this code's outputs at seed 42 and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *root, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints each metric by name with its unit, then the result line.
func report(names []string, r result) error {
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run(name string, seed uint64, seconds int, traced bool, root string, update bool) error {
	benchDir := filepath.Join(root, "perfbench")
	if update {
		return writeExpected(root, benchDir)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seed == 0 {
		// SweepSpec runs seed 0 as the default seed; so does everything here.
		seed = experiments.DefaultSeed
	}
	exp, err := loadExpectations(root, benchDir)
	if err != nil {
		return err
	}
	// One simulation at a time: the GC keeps the second core, and layer
	// times add up to pass wall time.
	experiments.Parallelism = 1
	b := &bench{seed: seed, exp: exp, first: make(map[string]string)}
	runDir := filepath.Join(root, ".bench_run", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	if traced {
		return runTraced(b, w, runDir, filepath.Join(root, ".bench_run", "spans"))
	}
	return runTimed(b, w, runDir, time.Duration(seconds)*time.Second)
}

// passStats tracks attempted and failed passes.
type passStats struct{ attempted, failed int }

// checked runs one pass and counts it, reporting a failure on stderr.
func (ps *passStats) checked(b *bench, w *workload, tr *tracer) bool {
	ps.attempted++
	if err := w.pass(b, tr); err != nil {
		ps.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d failed: %v\n", w.name, ps.attempted, err)
		return false
	}
	return true
}

// lost counts the attempted pass that could not be measured as failed and
// returns false.
func (ps *passStats) lost(w *workload, err error) bool {
	ps.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s pass %d not measured: %v\n", w.name, ps.attempted, err)
	return false
}

// setUp points the engine at a fresh store, makes the workload's
// recordings and runs one untimed, checked warm-up pass.
func setUp(b *bench, w *workload, store string, ps *passStats) error {
	experiments.SetTraceDir(store)
	experiments.ResetRunCache()
	if err := w.record(); err != nil {
		return fmt.Errorf("recording %s streams: %w", w.name, err)
	}
	experiments.ResetRunCache()
	ps.checked(b, w, nil)
	return nil
}

// sample is one pass's measurements; wall is measured wall time, unstolen
// that less the machine's stolen time (see calib.go), rssMB the pass's
// peak resident set.
type sample struct {
	wall, unstolen, cpu time.Duration
	alloc, mallocs      uint64
	rssMB               float64
}

// freshStart resets the run cache, collects the heap and returns its free
// pages to the OS, so that every pass starts from the same state whatever
// ran before it.
func freshStart() {
	experiments.ResetRunCache()
	debug.FreeOSMemory()
}

// timedPass runs one pass from a fresh start and measures it. A single
// pass's peak resident set moves with the timing of its garbage
// collections, so it is measured per pass (and reported as the median).
func timedPass(b *bench, w *workload, ps *passStats) (sample, bool) {
	freshStart()
	if err := resetPeakRSS(); err != nil {
		ps.attempted++
		return sample{}, ps.lost(w, err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime(syscall.RUSAGE_SELF)
	sw := startStopwatch()
	ok := ps.checked(b, w, nil)
	wall, unstolen := sw.elapsed()
	c1 := cpuTime(syscall.RUSAGE_SELF)
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB()
	if err != nil {
		if !ok {
			return sample{}, false
		}
		return sample{}, ps.lost(w, err)
	}
	return sample{wall: wall, unstolen: unstolen, cpu: c1 - c0,
		alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs, rssMB: rss}, ok
}

func runTimed(b *bench, w *workload, runDir string, budget time.Duration) error {
	var ps passStats
	var setups, rawSetups, calibs []float64
	for i := range setupRounds {
		calibs = append(calibs, calibrate().Seconds())
		sw := startStopwatch()
		store := filepath.Join(runDir, fmt.Sprintf("store-%d", i))
		if err := setUp(b, w, store, &ps); err != nil {
			return err
		}
		raw, unstolen := sw.elapsed()
		setups = append(setups, unstolen.Seconds())
		rawSetups = append(rawSetups, raw.Seconds())
		if i > 0 {
			os.RemoveAll(filepath.Join(runDir, fmt.Sprintf("store-%d", i-1)))
		}
	}

	var walls, rawWalls, cpus, allocs, mallocs, rsss []float64
	start := time.Now()
	for len(walls) < minPasses || time.Since(start) < budget {
		calibs = append(calibs, calibrate().Seconds())
		s, ok := timedPass(b, w, &ps)
		if !ok {
			if ps.attempted > 2*minPasses && ps.failed*2 > ps.attempted {
				break
			}
			continue
		}
		walls = append(walls, s.unstolen.Seconds())
		rawWalls = append(rawWalls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.alloc)/1e6)
		mallocs = append(mallocs, float64(s.mallocs)/1e6)
		rsss = append(rsss, s.rssMB)
	}
	scale := hostScale(calibs)
	fmt.Printf("%s: seed %d, %d timed passes, wall_s spread %.4f\n", w.name, b.seedFor(w), len(walls), spread(walls))
	fmt.Printf("measured: pass wall %.3f\nmeasured: pass wall less stolen %.3f\nmeasured: pass cpu %.3f\nmeasured: pass peak rss %.1f\nmeasured: setup rounds %.3f\n",
		rawWalls, walls, cpus, rsss, rawSetups)
	fmt.Printf("measured medians: wall %.4f, less stolen %.4f, cpu %.4f, setup %.4f; calibration %.2f ms (median of %d), host scale %.4f\n",
		median(rawWalls), median(walls), median(cpus), median(rawSetups), median(calibs)*1e3, len(calibs), scale)

	r := result{Correct: ps.failed == 0, Attempted: ps.attempted, Failed: ps.failed, Metrics: map[string]metric{
		"wall_s":      {median(walls) * scale, "s"},
		"cpu_s":       {median(cpus) * scale, "s"},
		"alloc_mb":    {median(allocs), "MB"},
		"allocs_m":    {median(mallocs), "M"},
		"peak_rss_mb": {median(rsss), "MB"},
		"setup_s":     {median(setups) * scale, "s"},
	}}
	if len(walls) == 0 {
		return fmt.Errorf("%s: every timed pass failed", w.name)
	}
	return report([]string{"wall_s", "cpu_s", "alloc_mb", "allocs_m", "peak_rss_mb", "setup_s"}, r)
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// cpuTime is the user plus system CPU time so far of the process
// (syscall.RUSAGE_SELF) or of the calling thread (rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the kernel's record of the process's peak resident
// set (VmHWM) back to its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MB since the last
// resetPeakRSS, from the VmHWM line of /proc/self/status (in kB).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// writeExpected regenerates expected.json: the default-seed digest of
// every non-figure output, each from one checked pass of its workload.
func writeExpected(root, benchDir string) error {
	figs := make(map[string]string)
	if err := readJSON(filepath.Join(root, goldenPath), &figs); err != nil {
		return err
	}
	experiments.Parallelism = 1
	dir := filepath.Join(root, ".bench_run", fmt.Sprintf("expected-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	b := &bench{seed: experiments.DefaultSeed, first: make(map[string]string),
		exp: &expectations{figures: figs, digests: make(map[string]string), record: true}}
	for _, w := range allWorkloads {
		var ps passStats
		if err := setUp(b, w, filepath.Join(dir, w.name), &ps); err != nil {
			return err
		}
		if ps.failed > 0 {
			return fmt.Errorf("%s: pass failed while recording expected digests", w.name)
		}
	}
	data, err := json.MarshalIndent(b.exp.digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir, expectedFile), append(data, '\n'), 0o644)
}
