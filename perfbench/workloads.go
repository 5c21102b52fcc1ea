package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/prefetch"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// workload is one benchmark input: what set-up records into the run's
// store, and one pass — the unit that is timed, repeated and checked.
type workload struct {
	name string
	// fixedSeed marks workloads whose drivers hard-code the paper's seed
	// (their outputs are pinned by golden hashes); --seed does not reach
	// them.
	fixedSeed bool
	// record makes the store recordings the passes read.
	record func() error
	// pass runs the workload once and checks its output.
	pass func(b *bench, tr *tracer) error
}

// bench is the state one benchmark process shares across its passes.
type bench struct {
	seed uint64
	exp  *expectations
	// first holds, per output name, the first pass's digest at a
	// non-default seed.
	first map[string]string
}

var allWorkloads = []*workload{sweepExec, counterFigs, fullsysWL}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// seedFor is the input seed a workload actually runs at.
func (b *bench) seedFor(w *workload) uint64 {
	if w.fixedSeed {
		return experiments.DefaultSeed
	}
	return b.seed
}

// sweepSpec is the sweep-exec design grid: every kernel at GHB size 2
// and approximation degree 4, with output error, so every point executes
// its kernel (7 LVA points plus 7 precise baselines).
func sweepSpec(seed uint64) experiments.SweepSpec {
	return experiments.SweepSpec{
		GHBs:    []int{2},
		Windows: []float64{0.10},
		Degrees: []int{4},
		Seed:    seed,
	}
}

var sweepExec = &workload{
	name:   "sweep-exec",
	record: func() error { return nil },
	pass: func(b *bench, tr *tracer) error {
		var (
			pts []experiments.SweepPoint
			err error
		)
		tr.do("experiments.RunSweep", func() { pts, err = experiments.RunSweep(sweepSpec(b.seed), nil) })
		if err != nil {
			return err
		}
		return b.checkDigest("sweep-exec", b.seed, sweepDigest(pts))
	},
}

// counterFigIDs are the counter figures the counter-figs pass
// regenerates: Table 1 and Figure 12 are served from recorded footers,
// Figure 13's fluidanimate points execute.
var counterFigIDs = []string{"table1", "fig12", "fig13"}

// counterSweepSpec is the counters-only sweep the counter-figs pass runs
// on the two feedback-free kernels, whose points the engine replays from
// their recorded precise streams (one decode pass per point).
func counterSweepSpec() experiments.SweepSpec {
	return experiments.SweepSpec{
		Benchmarks:   []string{"blackscholes", "ferret"},
		GHBs:         []int{0, 1, 2, 4},
		Windows:      []float64{0.10},
		Degrees:      []int{0},
		Seed:         experiments.DefaultSeed,
		CountersOnly: true,
	}
}

// prefetchKernels and prefetchDegrees are the Figure 8 prefetcher points
// the counter-figs pass replays, on the four kernels whose replays take
// under 0.1 s each (canneal alone takes 3 s).
var (
	prefetchKernels = []string{"blackscholes", "ferret", "swaptions", "x264"}
	prefetchDegrees = []int{4, 16}
)

var counterFigs = &workload{
	name:      "counter-figs",
	fixedSeed: true,
	record: func() error {
		for _, w := range workloads.All() {
			for _, kind := range []string{"precise", "lvabase"} {
				if _, err := experiments.EnsureGridStream(kind, w, experiments.DefaultSeed); err != nil {
					return err
				}
			}
		}
		return nil
	},
	pass: func(b *bench, tr *tracer) error {
		var (
			figs []*experiments.Figure
			err  error
		)
		tr.do("experiments.RunAll", func() { figs, err = experiments.RunAll(counterFigIDs...) })
		if err != nil {
			return err
		}
		if err := b.exp.checkFigures(figs); err != nil {
			return err
		}
		var pts []experiments.SweepPoint
		tr.do("experiments.RunSweep", func() { pts, err = experiments.RunSweep(counterSweepSpec(), nil) })
		if err != nil {
			return err
		}
		if err := b.checkDigest("counter-figs/replay-sweep", experiments.DefaultSeed, sweepDigest(pts)); err != nil {
			return err
		}
		var d digester
		for _, k := range prefetchKernels {
			res, err := prefetchReplay(tr, k)
			if err != nil {
				return err
			}
			for i, deg := range prefetchDegrees {
				d.addSimResult(fmt.Sprintf("%s/prefetch-%d", k, deg), res[i])
			}
		}
		return b.checkDigest("counter-figs/prefetch", experiments.DefaultSeed, d.sum())
	},
}

// prefetchConfig is the phase-1 configuration of a GHB-prefetcher point.
func prefetchConfig(degree int) memsim.Config {
	cfg := memsim.DefaultConfig()
	cfg.Attach = memsim.AttachPrefetch
	p := prefetch.DefaultConfig()
	p.Degree = degree
	cfg.Prefetch = p
	return cfg
}

// prefetchReplay replays kernel's recorded precise stream into one
// prefetching simulator per degree in a single decode pass — the route
// Figure 8's prefetch rows take.
func prefetchReplay(tr *tracer, kernel string) ([]memsim.Result, error) {
	sims := make([]*memsim.Sim, len(prefetchDegrees))
	for i, d := range prefetchDegrees {
		sims[i] = memsim.New(prefetchConfig(d))
	}
	if err := replayStream(tr, kernel, experiments.DefaultSeed, sims); err != nil {
		return nil, err
	}
	out := make([]memsim.Result, len(sims))
	for i, s := range sims {
		out[i] = s.Result()
	}
	return out, nil
}

// replayStream locates kernel's precise recording in the store and
// replays it into sims.
func replayStream(tr *tracer, kernel string, seed uint64, sims []*memsim.Sim) error {
	s, err := openStream(tr, kernel, seed)
	if err != nil {
		return err
	}
	defer s.Close()
	tr.do("memsim.Replay", func() { err = memsim.Replay(s.gr, s.hdr.Instructions, sims) })
	return err
}

// stream is an open recording positioned at its first chunk.
type stream struct {
	*os.File
	hdr trace.GridHeader
	gr  *trace.GridReader
}

// openStream opens kernel's precise recording at seed, recording it first
// if the store lacks it.
func openStream(tr *tracer, kernel string, seed uint64) (*stream, error) {
	w, err := workloads.ByName(kernel)
	if err != nil {
		return nil, err
	}
	var path string
	tr.do("experiments.EnsureGridStream", func() {
		path, err = experiments.EnsureGridStream("precise", w, seed)
	})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &stream{File: f}
	if s.hdr, err = trace.ReadGridFooter(f); err == nil {
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			s.gr, err = trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("opening %s stream: %w", kernel, err)
	}
	return s, nil
}

// fullsysKernels and fullsysDegrees are the phase-2 sweep the fullsys pass
// runs: Figures 10 and 11's precise and degree-0..16 replays, on the three
// kernels whose sweeps together take under 2 s (bodytrack, canneal and
// fluidanimate alone would take 11 s).
var (
	fullsysKernels = []string{"blackscholes", "swaptions", "x264"}
	fullsysDegrees = []int{0, 2, 4, 8, 16}
)

var fullsysWL = &workload{
	name:      "fullsys",
	fixedSeed: true,
	record: func() error {
		for _, k := range fullsysKernels {
			w, err := workloads.ByName(k)
			if err != nil {
				return err
			}
			if _, err := experiments.EnsureGridStream("precise", w, experiments.DefaultSeed); err != nil {
				return err
			}
		}
		return nil
	},
	pass: func(b *bench, tr *tracer) error {
		var d digester
		for _, k := range fullsysKernels {
			w, err := workloads.ByName(k)
			if err != nil {
				return err
			}
			for _, deg := range fullsysDegrees {
				var p, l fullsys.Result
				tr.do("experiments.FullSystemResult", func() { p, l = experiments.FullSystemResult(w, deg) })
				if deg == fullsysDegrees[0] {
					d.addFullsysResult(k+"/precise", p)
				}
				d.addFullsysResult(fmt.Sprintf("%s/lva-%d", k, deg), l)
			}
		}
		return b.checkDigest("fullsys", experiments.DefaultSeed, d.sum())
	},
}

func (b *bench) checkDigest(name string, seed uint64, got string) error {
	first := b.first[name]
	err := b.exp.checkDigest(name, seed, got, &first)
	b.first[name] = first
	return err
}
