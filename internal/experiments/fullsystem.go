package experiments

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"

	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/obs/prov"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// fullsysDegrees are the approximation degrees swept in Figures 10 and 11.
var fullsysDegrees = []int{0, 2, 4, 8, 16}

// CaptureTrace runs a workload precisely under the phase-1 simulator and
// records its 4-thread access trace for phase-2 replay, mirroring the
// paper's methodology (approximation is applied during replay, where the
// paper notes instruction streams vary by at most ~2.4%). The capture
// buffer is preallocated from the access count of a precise run — served
// by the run cache, so it costs at most one extra simulation process-wide
// and is free whenever the figures needed the precise point anyway.
func CaptureTrace(w workloads.Workload, seed uint64) *trace.Trace {
	n := RunPrecise(w, seed).Sim
	cfg := memsim.DefaultConfig()
	cfg.Attach = memsim.AttachNone
	sim := memsim.New(cfg)
	sim.CaptureSized(w.Name(), int(n.Loads+n.Stores))
	w.Run(sim, seed)
	return sim.TakeTrace()
}

// fullsysRun is one phase-2 replay result.
type fullsysRun struct {
	precise fullsys.Result
	byDeg   map[int]fullsys.Result
}

type traceCell struct {
	once sync.Once
	tr   *trace.Trace
}

var traceCells sync.Map // workload name -> *traceCell

// cachedTrace memoizes the phase-1 capture per workload and process.
func cachedTrace(w workloads.Workload) *trace.Trace {
	c, _ := traceCells.LoadOrStore(w.Name(), &traceCell{})
	cell := c.(*traceCell)
	cell.once.Do(func() { cell.tr = CaptureTrace(w, DefaultSeed) })
	return cell.tr
}

// fullsysConfigs returns the phase-2 configurations of Figures 10 and 11:
// precise first, then LVA at every degree in fullsysDegrees.
func fullsysConfigs(w workloads.Workload) []fullsys.Config {
	cfg := fullsys.DefaultConfig()
	cfgs := []fullsys.Config{cfg}
	for _, d := range fullsysDegrees {
		acfg := BaselineFor(w)
		acfg.Degree = d
		// Full-system value delay is realistic (~1 load on average,
		// §VI-E) rather than the conservative 4 of the design-space
		// phase.
		acfg.ValueDelay = 1
		c := cfg
		c.Approx = &acfg
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// fullsysLabel names a phase-2 configuration in provenance records.
func fullsysLabel(cfg fullsys.Config) string {
	if cfg.Approx == nil {
		return "precise"
	}
	return "lva-d" + strconv.Itoa(cfg.Approx.Degree)
}

func newSims(cfgs []fullsys.Config) []*fullsys.Sim {
	sims := make([]*fullsys.Sim, len(cfgs))
	for i, c := range cfgs {
		sims[i] = fullsys.New(c)
	}
	return sims
}

// runFullsys runs every phase-2 configuration for w in one pass. With
// replay enabled it streams the recorded precise grid trace from disk
// chunk by chunk, decoding it once for all configurations — fullsys never
// holds the flat trace in memory — and falls back to the materialized
// in-memory capture when no recording is available. Each configuration
// gets its own provenance record.
func runFullsys(w workloads.Workload, cfgs []fullsys.Config) []fullsys.Result {
	pc := provBegin(0)
	if replayEnabled() {
		if st := ensureStream(streamPrecise, w, DefaultSeed); st.path != "" {
			if rs, err := streamFullsys(cfgs, st); err == nil {
				if pc.on() {
					for _, cfg := range cfgs {
						label := fullsysLabel(cfg)
						key := runKey("fullsys", w, label, DefaultSeed)
						pc.point("fullsys", w.Name()+"/"+label, "fullsys", prov.RouteReplay,
							prov.CounterNone, provWhyStream, key, st, provStagesStream, "")
						pc.stage("fullsys "+w.Name()+"/"+label, "f", st.hdr.Key,
							map[string]any{"route": "replay", "workload": w.Name()})
					}
				}
				return rs
			}
		}
	}
	rs, err := fullsys.ReplayTrace(cachedTrace(w), newSims(cfgs))
	if err != nil {
		// The configurations share DefaultConfig's core count, and an
		// in-memory trace has no decode step: no error can occur.
		panic(err)
	}
	if pc.on() {
		for _, cfg := range cfgs {
			label := fullsysLabel(cfg)
			key := runKey("fullsys", w, label, DefaultSeed)
			pc.point("fullsys", w.Name()+"/"+label, "fullsys", prov.RouteExec,
				prov.CounterNone, provWhyCapture, key, nil, provStagesRunExec, "")
			pc.stage("fullsys "+w.Name()+"/"+label, "", "",
				map[string]any{"route": "exec", "workload": w.Name()})
		}
	}
	return rs
}

func streamFullsys(cfgs []fullsys.Config, st *gridStream) ([]fullsys.Result, error) {
	f, err := os.Open(st.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gr, err := trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, err
	}
	return fullsys.Replay(gr, st.hdr.Threads, newSims(cfgs))
}

type fsCell struct {
	once sync.Once
	r    *fullsysRun
}

var fsCells sync.Map // workload name -> *fsCell

// fullSystemSweep replays a workload's trace precisely and under LVA at
// every degree in fullsysDegrees, memoizing per process (Figures 10 and 11
// share these runs). Distinct workloads sweep concurrently.
func fullSystemSweep(w workloads.Workload) *fullsysRun {
	c, _ := fsCells.LoadOrStore(w.Name(), &fsCell{})
	cell := c.(*fsCell)
	cell.once.Do(func() {
		rs := runFullsys(w, fullsysConfigs(w))
		run := &fullsysRun{precise: rs[0], byDeg: make(map[int]fullsys.Result)}
		for i, d := range fullsysDegrees {
			run.byDeg[d] = rs[i+1]
		}
		cell.r = run
	})
	return cell.r
}

// Fig10 reproduces Figure 10: full-system speedup (a) and dynamic energy
// savings in the memory hierarchy (b) for approximation degrees 0..16.
// Expected shape: ~8.5% mean speedup with bodytrack and canneal best;
// energy savings grow with degree (mean ~12.6% at degree 16).
func Fig10() *Figure {
	f := &Figure{
		ID:         "fig10",
		Title:      "Full-system speedup and energy savings vs. approximation degree",
		ValueUnit:  "speedup fraction / energy-savings fraction",
		Benchmarks: workloads.Names(),
	}
	sweeps := sweepAll()
	for _, d := range fullsysDegrees {
		row := Row{Label: fmt.Sprintf("speedup approx-%d", d)}
		for _, r := range sweeps {
			lva := r.byDeg[d]
			row.Values = append(row.Values,
				float64(r.precise.Cycles)/float64(lva.Cycles)-1)
		}
		f.Rows = append(f.Rows, row)
	}
	for _, d := range fullsysDegrees {
		row := Row{Label: fmt.Sprintf("energy savings approx-%d", d)}
		for _, r := range sweeps {
			lva := r.byDeg[d]
			row.Values = append(row.Values,
				1-lva.Energy.TotalPJ()/r.precise.Energy.TotalPJ())
		}
		f.Rows = append(f.Rows, row)
	}

	// The paper's accompanying §VI-E statistics.
	var latRed0, latRed16, trafRed16 float64
	n := 0.0
	for _, r := range sweeps {
		pl := r.precise.AvgExposedMissLatency()
		if pl > 0 {
			latRed0 += 1 - r.byDeg[0].AvgExposedMissLatency()/pl
			latRed16 += 1 - r.byDeg[16].AvgExposedMissLatency()/pl
		}
		if r.precise.FlitHops > 0 {
			trafRed16 += 1 - float64(r.byDeg[16].FlitHops)/float64(r.precise.FlitHops)
		}
		n++
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("mean exposed L1-miss-latency reduction: %.1f%% (degree 0), %.1f%% (degree 16); paper: 41.0%% and 47.2%%", latRed0/n*100, latRed16/n*100),
		fmt.Sprintf("mean interconnect traffic reduction at degree 16: %.1f%%; paper: 37.2%%", trafRed16/n*100),
		"paper: 8.5% mean speedup (up to 28.6%); 12.6% mean energy savings at degree 16 (up to 44.1%)")
	return f
}

// Fig11 reproduces Figure 11: the L1-miss energy-delay product, normalized
// to precise execution, for approximation degrees 0..16. Expected shape:
// EDP falls as degree rises (paper: -41.9%, -53.8%, -63.8% mean at degrees
// 0, 4, 16).
func Fig11() *Figure {
	f := &Figure{
		ID:         "fig11",
		Title:      "L1-miss energy-delay product vs. approximation degree",
		ValueUnit:  "normalized EDP (lower is better)",
		Benchmarks: workloads.Names(),
	}
	base := Row{Label: "baseline"}
	for range workloads.All() {
		base.Values = append(base.Values, 1)
	}
	f.Rows = append(f.Rows, base)
	sweeps := sweepAll()
	for _, d := range fullsysDegrees {
		row := Row{Label: fmt.Sprintf("approx-%d", d)}
		for _, r := range sweeps {
			p := r.precise.MissEDP()
			if p == 0 {
				row.Values = append(row.Values, 1)
				continue
			}
			row.Values = append(row.Values, r.byDeg[d].MissEDP()/p)
		}
		f.Rows = append(f.Rows, row)
	}
	f.Notes = append(f.Notes, "paper: mean L1-miss EDP reductions of 41.9%, 53.8% and 63.8% at degrees 0, 4 and 16")
	return f
}

// sweepAll warms the full-system sweeps for every workload concurrently
// and returns them in registry order.
func sweepAll() []*fullsysRun {
	out := make([]*fullsysRun, len(workloads.Names()))
	forEachWorkload("fullsys-sweep", func(i int, w workloads.Workload) {
		out[i] = fullSystemSweep(w)
	})
	return out
}

// FullSystemResult exposes the memoized phase-2 replays for a workload so
// tools (cmd/lvaexp -v, tests) can inspect raw cycle/energy numbers.
func FullSystemResult(w workloads.Workload, degree int) (precise, lva fullsys.Result) {
	r := fullSystemSweep(w)
	return r.precise, r.byDeg[degree]
}
