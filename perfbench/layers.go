package main

// The traced run (--trace 1) answers "where does a pass's time go". It
// sets up once, times a few untraced passes for the reference median,
// then makes one traced pass with a span around every public call the
// pass makes, and one counting pass with the provenance ledger on. The
// per-event cost of each layer comes from calling that layer's public
// functions directly on the workload's recorded streams, each call inside
// its own span; a layer's cost is the difference between two such calls
// that differ only by that layer. count × cost per layer, summed, is set
// against the reference pass time, and what it leaves unexplained is the
// residual.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lva/internal/cache"
	"lva/internal/coherence"
	"lva/internal/core"
	"lva/internal/dram"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/noc"
	"lva/internal/obs/prov"
	"lva/internal/prefetch"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// refPasses is how many untraced passes give the traced run's reference
// pass time.
const refPasses = 5

// perKernel maps a kernel name to an amount.
type perKernel map[string]float64

// total sums m in kernel-name order, so the sum is reproducible.
func (m perKernel) total() float64 {
	t := 0.0
	for _, k := range sortedKeys(m) {
		t += m[k]
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// usage is the work one pass did in each layer, per kernel where the
// per-event cost depends on the kernel.
type usage struct {
	kernelRuns float64
	kernelAcc  perKernel // accesses issued by executing kernels
	simAcc     perKernel // accesses through phase-1 simulators
	coreMiss   perKernel // L1 load misses handed to an approximator or predictor
	l1Loads    float64   // phase-1 loads, for cache.miss_frac
	l1Misses   float64
	pfMiss     [2]perKernel // prefetcher misses, by prefetchDegrees index
	decoded    perKernel    // accesses decoded from LVAG streams
	fsAcc      perKernel    // accesses streamed through fullsys.RunStream
	packets    perKernel
	dirOps     perKernel
	dramAcc    perKernel
}

func newUsage() *usage {
	return &usage{kernelAcc: perKernel{}, simAcc: perKernel{}, coreMiss: perKernel{},
		pfMiss: [2]perKernel{{}, {}}, decoded: perKernel{}, fsAcc: perKernel{},
		packets: perKernel{}, dirOps: perKernel{}, dramAcc: perKernel{}}
}

// addExec accounts one kernel execution with result r.
func (u *usage) addExec(k string, r memsim.Result, approx bool) {
	acc := float64(r.Loads + r.Stores)
	u.kernelRuns++
	u.kernelAcc[k] += acc
	u.simAcc[k] += acc
	u.l1Loads += float64(r.Loads)
	u.l1Misses += float64(r.LoadMisses)
	if approx {
		u.coreMiss[k] += float64(r.LoadMisses)
	}
}

// profile is one kernel's measured per-layer cost: the duration of one
// call over its whole recorded precise stream, for each call the cost
// model differences.
type profile struct {
	acc, loads, misses float64 // from the recording's footer
	bytes              float64 // recording size

	decode, replayNone, replayLVA, run, encode time.Duration
	lvaMisses                                  float64

	pf       [2]time.Duration // OnMiss over the precise stream's misses
	pfCalls  float64
	pfAllocs [2]float64

	fs       time.Duration
	fsAllocs float64

	packets, dirOps, dramAcc float64
	noc, dir, dram           time.Duration
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// per returns total/n, or 0 when n is 0.
func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// Per-event costs in ns, by the differences the cost model defines.
func (p *profile) decodeNS() float64 { return per(ns(p.decode), p.acc) }
func (p *profile) memsimNS() float64 { return per(ns(p.replayNone-p.decode), p.acc) }
func (p *profile) kernelNS() float64 {
	return per(ns(p.run-p.replayNone+p.decode), p.acc)
}
func (p *profile) coreNS() float64           { return per(ns(p.replayLVA-p.replayNone), p.lvaMisses) }
func (p *profile) encodeNS() float64         { return per(ns(p.encode-p.decode), p.acc) }
func (p *profile) pfNS(i int) float64        { return per(ns(p.pf[i]), p.pfCalls) }
func (p *profile) pfAllocsPer(i int) float64 { return per(p.pfAllocs[i], p.pfCalls) }
func (p *profile) fullsysNS() float64        { return per(ns(p.fs-p.decode), p.acc) }
func (p *profile) nocNS() float64            { return per(ns(p.noc), p.packets) }
func (p *profile) dirNS() float64            { return per(ns(p.dir), p.dirOps) }
func (p *profile) dramNS() float64           { return per(ns(p.dram), p.dramAcc) }

// mallocs returns the process's heap allocation count so far.
func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// replayInto replays kernel's stream into sims inside a span and returns
// the call's duration.
func replayInto(tr *tracer, name, kernel string, seed uint64, sims ...*memsim.Sim) (time.Duration, error) {
	s, err := openStream(tr, kernel, seed)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	runtime.GC()
	d := tr.do(name, func() { err = memsim.Replay(s.gr, s.hdr.Instructions, sims) })
	return d, err
}

func simWith(attach memsim.Attachment, approx core.Config) *memsim.Sim {
	cfg := memsim.DefaultConfig()
	cfg.Attach = attach
	cfg.Approx = approx
	return memsim.New(cfg)
}

// layerSet names the cost measurements a profile needs.
type layerSet struct{ phase1, prefetch, phase2 bool }

// microReps is how often each profiling call repeats; the fastest
// repetition, the least disturbed by the rest of the machine, is kept.
const microReps = 2

// measure profiles kernel at seed: each layer's calls over its recorded
// precise stream, each inside a span under "micro/<kernel>", keeping the
// fastest of microReps rounds per call.
func measure(tr *tracer, kernel string, seed uint64, need layerSet) (*profile, error) {
	top := tr.begin("micro/" + kernel)
	defer tr.end(top)
	var best *profile
	for range microReps {
		p, err := measureOnce(tr, kernel, seed, need)
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = p
			continue
		}
		for _, f := range [][2]*time.Duration{
			{&best.decode, &p.decode}, {&best.replayNone, &p.replayNone}, {&best.replayLVA, &p.replayLVA},
			{&best.run, &p.run}, {&best.encode, &p.encode}, {&best.pf[0], &p.pf[0]}, {&best.pf[1], &p.pf[1]},
			{&best.fs, &p.fs}, {&best.noc, &p.noc}, {&best.dir, &p.dir}, {&best.dram, &p.dram},
		} {
			*f[0] = min(*f[0], *f[1])
		}
	}
	return best, nil
}

// measureOnce makes one round of measure's calls.
func measureOnce(tr *tracer, kernel string, seed uint64, need layerSet) (*profile, error) {
	w, err := workloads.ByName(kernel)
	if err != nil {
		return nil, err
	}
	p := &profile{}
	s, err := openStream(tr, kernel, seed)
	if err != nil {
		return nil, err
	}
	var rec memsim.Result
	if err := json.Unmarshal(s.hdr.Meta, &rec); err != nil {
		s.Close()
		return nil, fmt.Errorf("%s footer: %w", kernel, err)
	}
	p.acc, p.loads, p.misses = float64(s.hdr.Accesses), float64(rec.Loads), float64(rec.LoadMisses)
	if fi, err := s.Stat(); err == nil {
		p.bytes = float64(fi.Size())
	}
	runtime.GC()
	p.decode = tr.do("trace.Walk", func() {
		err = trace.Walk(s.gr, func(*trace.Access, uint64) error { return nil })
	})
	s.Close()
	if err != nil {
		return nil, err
	}

	none := simWith(memsim.AttachNone, core.Config{})
	if p.replayNone, err = replayInto(tr, "memsim.Replay[none]", kernel, seed, none); err != nil {
		return nil, err
	}
	if need.phase1 {
		lva := simWith(memsim.AttachLVA, experiments.BaselineFor(w))
		if p.replayLVA, err = replayInto(tr, "memsim.Replay[lva]", kernel, seed, lva); err != nil {
			return nil, err
		}
		p.lvaMisses = float64(lva.Result().LoadMisses)
		exec := simWith(memsim.AttachNone, core.Config{})
		runtime.GC()
		p.run = tr.do("workloads.Run[none]", func() { w.Run(exec, seed) })
		if p.encode, err = encodeStream(tr, kernel, seed); err != nil {
			return nil, err
		}
	}
	if need.prefetch {
		// The prefetcher is driven with the precise stream's L1 misses;
		// the pass's miss count comes from its own replays.
		misses, err := l1Misses(tr, kernel, seed, memsim.DefaultConfig().L1, 1)
		if err != nil {
			return nil, err
		}
		p.pfCalls = float64(len(misses))
		for i, d := range prefetchDegrees {
			pf := prefetch.New(prefetchConfig(d).Prefetch)
			runtime.GC()
			a0 := mallocs()
			p.pf[i] = tr.do(fmt.Sprintf("prefetch.Prefetcher.OnMiss[degree %d]", d), func() {
				for _, m := range misses {
					pf.OnMiss(m.pc, m.block)
				}
			})
			p.pfAllocs[i] = mallocs() - a0
		}
	}
	if need.phase2 {
		if err := measurePhase2(tr, p, kernel, seed); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// encodeStream re-encodes kernel's stream into a discarding writer; the
// span covers decode plus encode.
func encodeStream(tr *tracer, kernel string, seed uint64) (time.Duration, error) {
	s, err := openStream(tr, kernel, seed)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	gw := trace.NewGridWriter(io.Discard, kernel, s.hdr.Key, seed)
	runtime.GC()
	d := tr.do("trace.GridWriter.Access", func() {
		err = trace.Walk(s.gr, func(a *trace.Access, insts uint64) error {
			gw.Access(a.PC, a.Addr, a.Value, a.Op, a.Approx, a.Thread, insts)
			return nil
		})
		if err == nil {
			_, err = gw.Finish(s.hdr.Instructions, nil)
		}
	})
	return d, err
}

// missEvent is one L1 miss of a kernel's precise stream.
type missEvent struct {
	node      int
	pc, block uint64
	store     bool
}

// l1Misses derives the L1 misses of kernel's precise stream through one
// private cache of geometry cfg per node, threads mapped onto nodes as
// the phase-2 model maps them onto cores.
func l1Misses(tr *tracer, kernel string, seed uint64, cfg cache.Config, nodes int) ([]missEvent, error) {
	s, err := openStream(tr, kernel, seed)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var misses []missEvent
	tr.do("cache.Probe[derive L1 misses]", func() {
		l1 := make([]*cache.Cache, nodes)
		for i := range l1 {
			l1[i] = cache.New(cfg)
		}
		err = trace.Walk(s.gr, func(a *trace.Access, _ uint64) error {
			node := int(a.Thread) % nodes
			c := l1[node]
			if idx := c.Probe(a.Addr); idx >= 0 {
				c.Touch(idx)
				return nil
			}
			c.FillAbsent(a.Addr, false)
			misses = append(misses, missEvent{node, a.PC, c.BlockAddr(a.Addr), a.Op == trace.Store})
			return nil
		})
	})
	return misses, err
}

// measurePhase2 times fullsys.RunStream over the stream, then drives the
// NoC, the directory and DRAM with the stream's L1-miss blocks, derived
// through one private L1 per core as the phase-2 model has them.
func measurePhase2(tr *tracer, p *profile, kernel string, seed uint64) error {
	cfg := fullsys.DefaultConfig()
	s, err := openStream(tr, kernel, seed)
	if err != nil {
		return err
	}
	runtime.GC()
	a0 := mallocs()
	p.fs = tr.do("fullsys.RunStream[precise]", func() { _, err = fullsys.New(cfg).RunStream(s.hdr.Threads, s.gr) })
	p.fsAllocs = mallocs() - a0
	s.Close()
	if err != nil {
		return err
	}

	misses, err := l1Misses(tr, kernel, seed, cfg.L1, cfg.Cores)
	if err != nil {
		return err
	}
	home := func(block uint64) int { return int((block >> 6) % uint64(cfg.Cores)) }

	mesh := noc.New(cfg.NoC)
	runtime.GC()
	p.noc = tr.do("noc.Mesh.SendCtrl+SendData", func() {
		var now uint64
		for _, m := range misses {
			t := mesh.SendCtrl(m.node, home(m.block), now)
			mesh.SendData(home(m.block), m.node, t)
			now += 4
		}
	})
	p.packets = float64(mesh.Stats().Packets)

	dir := coherence.NewDirectory(cfg.Cores)
	p.dir = tr.do("coherence.Directory.Load/Store", func() {
		for _, m := range misses {
			if m.store {
				dir.Store(m.block, m.node)
			} else {
				dir.Load(m.block, m.node)
			}
		}
	})
	p.dirOps = float64(len(misses))

	dev := dram.New(cfg.DRAM)
	p.dram = tr.do("dram.DRAM.Access", func() {
		var now uint64
		for _, m := range misses {
			dev.Access(m.block, now)
			now += 4
		}
	})
	p.dramAcc = float64(dev.Stats().Accesses)
	return nil
}

// counted is what the counting pass observed.
type counted struct {
	costs   prov.CostStats
	records []prov.RecordLine
	calls   map[string]string // run-cache fingerprint -> label
}

// countingPass runs one pass with the provenance ledger on and returns
// its records and decode/stream volumes.
func countingPass(b *bench, w *workload, ps *passStats) (*counted, error) {
	experiments.ResetRunCache()
	experiments.EnableProvenance()
	ps.checked(b, w, nil)
	var buf bytes.Buffer
	err := experiments.WriteProvManifest(&buf)
	ledger := experiments.DisableProvenance()
	if err != nil {
		return nil, fmt.Errorf("provenance manifest: %w", err)
	}
	m, err := prov.ReadManifest(&buf)
	if err != nil {
		return nil, fmt.Errorf("provenance manifest: %w", err)
	}
	c := &counted{costs: ledger.Costs(), records: m.Records, calls: make(map[string]string)}
	for _, l := range m.Calls {
		c.calls[l.Fingerprint] = l.Label
	}
	return c, nil
}

// kernelOfLabel returns the kernel a "<kind>/<kernel>" label names.
func kernelOfLabel(label string) string {
	k := label[strings.LastIndex(label, "/")+1:]
	if _, err := workloads.ByName(k); err != nil {
		return ""
	}
	return k
}

func runTraced(b *bench, w *workload, runDir, spanDir string) error {
	var ps passStats
	tr := newTracer()
	seed := b.seedFor(w)

	id := tr.begin("setup")
	experiments.SetTraceDir(filepath.Join(runDir, "store"))
	experiments.ResetRunCache()
	if err := w.record(); err != nil {
		return err
	}
	recordings := experiments.TraceCounters().Recordings
	experiments.ResetRunCache()
	ps.checked(b, w, nil)
	tr.end(id)

	var walls []float64
	for range refPasses {
		if s, ok := timedPass(b, w, &ps); ok {
			walls = append(walls, s.unstolen.Seconds())
		}
	}
	ref := median(walls)

	freshStart()
	id = tr.begin("pass")
	ps.checked(b, w, tr)
	tracedWall := tr.end(id).Seconds()
	rc, tc := experiments.RunCacheCounters(), experiments.TraceCounters()
	lookups := experiments.ProvCounters().RunCacheLookups

	// Counts that need the pass's memoized results are taken now, before
	// the counting pass resets the run cache.
	u := newUsage()
	if w == sweepExec {
		if err := countSweep(u, seed); err != nil {
			return err
		}
	}
	if w == fullsysWL {
		countFullsys(u)
	}
	if sims := experiments.RunCacheCounters().Simulated; sims != rc.Simulated {
		fmt.Fprintf(os.Stderr, "perfbench: warning: recounting %s re-simulated %d points; its counts are not the pass's\n", w.name, sims-rc.Simulated)
	}

	cp, err := countingPass(b, w, &ps)
	if err != nil {
		return err
	}

	// Profile every kernel the pass touched; a layer the workload
	// bypasses is profiled on blackscholes alone so its cost is still
	// reported.
	kernels := kernelSet(w)
	profiles := make(map[string]*profile)
	for _, k := range workloads.Names() {
		probe := k == "blackscholes"
		if !contains(kernels, k) && !probe {
			continue
		}
		need := layerSet{
			phase1:   w != fullsysWL || probe,
			prefetch: (w == counterFigs && contains(prefetchKernels, k)) || probe,
			phase2:   (w == fullsysWL && contains(fullsysKernels, k)) || probe,
		}
		p, err := measure(tr, k, seed, need)
		if err != nil {
			return err
		}
		profiles[k] = p
	}
	if w == counterFigs {
		if err := countCounterFigs(u, cp, profiles); err != nil {
			return err
		}
	}
	if got, want := u.decoded.total(), float64(cp.costs.DecodedAccesses+cp.costs.StreamedAccesses); got != want {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s decode accounted %.0f accesses, the provenance ledger saw %.0f\n", w.name, got, want)
	}

	t := buildTable(u, profiles, ref)
	fmt.Printf("%s: seed %d, reference pass %.3f s (median of %d), traced pass %.3f s\n", w.name, seed, ref, len(walls), tracedWall)
	t.print(os.Stdout)
	warnBypassed(w, u, cp, rc, tc)

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-%d.json", w.name, b.seed, os.Getpid()))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", path)

	hitFrac := per(float64(rc.Hits), float64(lookups))
	m := t.metrics
	m["experiments.cache_lookups"] = metric{float64(lookups), "count"}
	m["experiments.cache_hit_frac"] = metric{hitFrac, "frac"}
	m["experiments.recordings"] = metric{float64(recordings), "count"}
	m["experiments.header_hits"] = metric{float64(tc.HeaderHits), "count"}
	m["experiments.replay_points"] = metric{float64(tc.ReplayPoints), "count"}
	m["experiments.exec_points"] = metric{float64(tc.ExecPoints), "count"}
	m["workloads.kernel_runs"] = metric{u.kernelRuns, "count"}
	m["traced.overhead_frac"] = metric{per(tracedWall, ref) - 1, "frac"}
	return report(sortedKeys(m), result{Correct: ps.failed == 0, Attempted: ps.attempted, Failed: ps.failed, Metrics: m})
}

// kernelSet is the kernels a workload's pass runs.
func kernelSet(w *workload) []string {
	if w == fullsysWL {
		return fullsysKernels
	}
	return workloads.Names()
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// countSweep reruns the sweep (every point a run-cache hit after the pass)
// and accounts each point's kernel execution, rebuilding its configuration
// from the point's own dimensions.
func countSweep(u *usage, seed uint64) error {
	spec := sweepSpec(seed)
	pts, err := experiments.RunSweep(spec, nil)
	if err != nil {
		return err
	}
	counted := make(map[string]bool)
	for _, p := range pts {
		w, err := workloads.ByName(p.Benchmark)
		if err != nil {
			return err
		}
		if !counted[p.Benchmark] {
			counted[p.Benchmark] = true
			u.addExec(p.Benchmark, experiments.RunPrecise(w, seed).Sim, false)
		}
		cfg := core.DefaultConfig()
		cfg.GHBSize, cfg.Window, cfg.Degree = p.GHB, p.Window, p.Degree
		cfg.ValueDelay, cfg.MantissaLoss, cfg.LHBSize = p.Delay, p.MantissaLoss, p.LHB
		cfg.IntConfidence, cfg.ProportionalConfidence = spec.IntConfidence, spec.Proportional
		u.addExec(p.Benchmark, experiments.RunLVA(w, cfg, seed).Sim, true)
	}
	return nil
}

// countFullsys reads back the pass's phase-2 results (memo hits).
func countFullsys(u *usage) {
	for _, k := range fullsysKernels {
		w, _ := workloads.ByName(k)
		for i, deg := range fullsysDegrees {
			p, l := experiments.FullSystemResult(w, deg)
			rs := []fullsys.Result{l}
			if i == 0 {
				rs = append(rs, p)
			}
			for _, r := range rs {
				acc := float64(r.Loads + r.Stores)
				u.fsAcc[k] += acc
				u.decoded[k] += acc
				u.packets[k] += float64(r.Packets)
				u.dirOps[k] += float64(r.Fetches)
				u.dramAcc[k] += float64(r.DRAMAccesses)
			}
		}
	}
}

// countCounterFigs accounts the counter figures from the counting pass's
// provenance records, and the prefetch replays by replaying them again. A
// replayed or executed LVA/LVP point is charged its kernel's precise
// access and miss counts.
func countCounterFigs(u *usage, cp *counted, profiles map[string]*profile) error {
	artifacts := make(map[string]string)
	for _, w := range workloads.All() {
		for _, kind := range []string{"precise", "lvabase"} {
			path, err := experiments.EnsureGridStream(kind, w, experiments.DefaultSeed)
			if err != nil {
				return err
			}
			artifacts[filepath.Base(path)] = w.Name()
		}
	}
	decodedGroups := make(map[string]bool)
	for _, r := range cp.records {
		k := artifacts[r.Artifact]
		if k == "" {
			k = kernelOfLabel(cp.calls[r.Fingerprint])
		}
		p := profiles[k]
		if p == nil {
			if r.Route != string(prov.RouteFooter) {
				fmt.Fprintf(os.Stderr, "perfbench: warning: %s %s record %q names no known kernel; left out of the counts\n", r.Figure, r.Route, r.Label)
			}
			continue
		}
		n := float64(r.Count)
		switch prov.Route(r.Route) {
		case prov.RouteReplay:
			u.simAcc[k] += n * p.acc
			u.coreMiss[k] += n * p.misses
			u.l1Loads += n * p.loads
			u.l1Misses += n * p.misses
			// A figure decodes each kernel's stream once for all its
			// replayed points; a sweep decodes it once per point.
			if r.Scheduler == "sweep" {
				u.decoded[k] += n * p.acc
			} else if g := r.Figure + "/" + k; !decodedGroups[g] {
				decodedGroups[g] = true
				u.decoded[k] += p.acc
			}
		case prov.RouteExec:
			u.kernelRuns += n
			u.kernelAcc[k] += n * p.acc
			u.simAcc[k] += n * p.acc
			u.coreMiss[k] += n * p.misses
			u.l1Loads += n * p.loads
			u.l1Misses += n * p.misses
		}
	}
	for _, k := range prefetchKernels {
		res, err := prefetchReplay(nil, k)
		if err != nil {
			return err
		}
		p := profiles[k]
		u.decoded[k] += p.acc
		for i, r := range res {
			u.simAcc[k] += float64(r.Loads + r.Stores)
			u.pfMiss[i][k] += float64(r.Prefetch.Misses)
			u.l1Loads += float64(r.Loads)
			u.l1Misses += float64(r.LoadMisses)
		}
	}
	return nil
}
