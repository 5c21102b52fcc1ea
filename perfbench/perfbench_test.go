package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"lva/internal/experiments"
	"lva/internal/workloads"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, since the benchmark's spreads are judged by that rule. Expected
// values were computed with Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3.2, 1.5}, 1.075, 3.625, 2.35},
		{[]float64{5, 1, 4}, 1, 5, 4},
		{[]float64{2.5, 2.7, 2.6, 3.1, 2.4, 2.9, 2.8}, 2.5, 2.9, 2.7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if m := median(c.xs); !near(m, c.md) {
			t.Errorf("median(%v) = %v; want %v", c.xs, m, c.md)
		}
	}
	if got, want := spread([]float64{2.5, 2.7, 2.6, 3.1, 2.4, 2.9, 2.8}), (2.9-2.5)/2.7; !near(got, want) {
		t.Errorf("spread = %v; want %v", got, want)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("statistics reordered their input: %v", xs)
	}
}

func testExpectations(digests map[string]string) *expectations {
	return &expectations{figures: map[string]string{}, digests: digests}
}

func TestDigestCheckCatchesPerturbedRow(t *testing.T) {
	pts := []experiments.SweepPoint{
		{Benchmark: "swaptions", GHB: 2, Window: 0.1, Degree: 4, Delay: 4, LHB: 4, RawMPKI: 1.25, Fetches: 10},
		{Benchmark: "x264", GHB: 0, Window: 0.1, Delay: 4, LHB: 4, RawMPKI: 0.5, Fetches: 7},
	}
	good := sweepDigest(pts)
	e := testExpectations(map[string]string{"sweep-exec": good})
	var first string
	if err := e.checkDigest("sweep-exec", experiments.DefaultSeed, good, &first); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	pts[1].Fetches++
	bad := sweepDigest(pts)
	if err := e.checkDigest("sweep-exec", experiments.DefaultSeed, bad, &first); err == nil {
		t.Fatal("perturbed row passed the default-seed check")
	}
	// Off the default seed the first pass is the reference.
	first = ""
	if err := e.checkDigest("sweep-exec", 7, good, &first); err != nil {
		t.Fatalf("first pass at seed 7 rejected: %v", err)
	}
	if err := e.checkDigest("sweep-exec", 7, good, &first); err != nil {
		t.Fatalf("agreeing pass at seed 7 rejected: %v", err)
	}
	if err := e.checkDigest("sweep-exec", 7, bad, &first); err == nil {
		t.Fatal("pass disagreeing with the run's first pass accepted")
	}
	if err := e.checkDigest("missing", experiments.DefaultSeed, good, &first); err == nil {
		t.Fatal("output with no expected digest accepted")
	}
}

// A sweep run at the wrong seed must not match the default seed's digest.
func TestDigestCheckCatchesWrongSeed(t *testing.T) {
	experiments.Parallelism = 1
	experiments.SetTraceDir(t.TempDir())
	t.Cleanup(func() { experiments.SetTraceDir("") })
	spec := func(seed uint64) experiments.SweepSpec {
		return experiments.SweepSpec{Benchmarks: []string{"swaptions"}, Degrees: []int{4}, Seed: seed}
	}
	run := func(seed uint64) string {
		experiments.ResetRunCache()
		pts, err := experiments.RunSweep(spec(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		return sweepDigest(pts)
	}
	want := run(experiments.DefaultSeed)
	if again := run(experiments.DefaultSeed); again != want {
		t.Fatalf("same seed, different digests: %s vs %s", short(again), short(want))
	}
	e := testExpectations(map[string]string{"sweep-exec": want})
	var first string
	if err := e.checkDigest("sweep-exec", experiments.DefaultSeed, run(experiments.DefaultSeed+1), &first); err == nil {
		t.Fatal("output of another seed passed the default-seed check")
	}
}

func TestFigureCheckCatchesChangedCell(t *testing.T) {
	f := &experiments.Figure{ID: "figX", Title: "t", ValueUnit: "u", Benchmarks: []string{"a", "b"},
		Rows: []experiments.Row{{Label: "r", Values: []float64{1, 2}}}}
	e := testExpectations(nil)
	e.figures["figX"] = "0"
	if err := e.checkFigures([]*experiments.Figure{f}); err == nil {
		t.Fatal("figure with the wrong hash accepted")
	}
	e.figures["figX"] = figureHash(f)
	if err := e.checkFigures([]*experiments.Figure{f}); err != nil {
		t.Fatalf("figure with its own hash rejected: %v", err)
	}
	f.Rows[0].Values[1] = 2.001
	if err := e.checkFigures([]*experiments.Figure{f}); err == nil {
		t.Fatal("changed cell accepted")
	}
	delete(e.figures, "figX")
	if err := e.checkFigures([]*experiments.Figure{f}); err == nil {
		t.Fatal("figure with no golden hash accepted")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: ms(0), End: ms(100)},
		// Overlapping children are merged: together they cover 10..50.
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(20), End: ms(50)},
		// A child running past its parent counts only inside it.
		{ID: 3, Parent: 0, Name: "c", Start: ms(90), End: ms(120)},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 4, Parent: 2, Name: "b.1", Start: ms(25), End: ms(35)},
		{ID: 5, Parent: -1, Name: "other", Start: ms(200), End: ms(210)},
	}
	want := []time.Duration{ms(50), ms(20), ms(20), ms(30), ms(10), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v; want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	tr.do("inner", func() { tr.do("innermost", func() {}) })
	tr.begin("left open")
	tr.end(outer)
	tr.do("after", func() {})
	parents := map[string]int{"outer": -1, "inner": 0, "innermost": 1, "left open": 0, "after": -1}
	for _, s := range tr.spans {
		if s.Parent != parents[s.Name] {
			t.Errorf("%s: parent %d; want %d", s.Name, s.Parent, parents[s.Name])
		}
		if s.End < s.Start {
			t.Errorf("%s: not closed", s.Name)
		}
	}
	var off *tracer
	if id := off.begin("x"); id != -1 || off.end(id) != 0 {
		t.Error("nil tracer recorded a span")
	}
	ran := false
	off.do("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer skipped the call")
	}
}

// The expected digests of the fullsys and counter-figs outputs must be
// what the code that reproduces the golden Figures 8, 10 and 11 computes,
// from the same recordings in one process; the fullsys outputs are the
// very memoized simulations Figures 10 and 11 are rendered from.
func TestExpectedDigestsFollowGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Figures 8, 10 and 11")
	}
	exp, err := loadExpectations("..", ".")
	if err != nil {
		t.Fatal(err)
	}
	experiments.Parallelism = 2
	experiments.SetTraceDir(t.TempDir())
	t.Cleanup(func() { experiments.SetTraceDir(""); experiments.Parallelism = 1 })
	experiments.ResetRunCache()
	figs, err := experiments.RunAll("fig8", "fig10", "fig11")
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.checkFigures(figs); err != nil {
		t.Fatal(err)
	}
	b := &bench{seed: experiments.DefaultSeed, exp: exp, first: map[string]string{}}
	if err := fullsysWL.pass(b, nil); err != nil {
		t.Errorf("fullsys outputs beside the golden figures: %v", err)
	}
	if err := counterFigs.pass(b, nil); err != nil {
		t.Errorf("counter-figs outputs beside the golden figures: %v", err)
	}
}

func TestKernelOfLabel(t *testing.T) {
	for label, want := range map[string]string{
		"lva/canneal":           "canneal",
		"LVA-GHB-1/x264":        "x264",
		"loss-5":                "",
		"prefetch-4/notakernel": "",
	} {
		if got := kernelOfLabel(label); got != want {
			t.Errorf("kernelOfLabel(%q) = %q; want %q", label, got, want)
		}
	}
	if len(workloads.Names()) != 7 {
		t.Errorf("%d kernels; the workload descriptions assume 7", len(workloads.Names()))
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, w := range allWorkloads {
		got, err := workloadByName(w.name)
		if err != nil || got != w {
			t.Errorf("workloadByName(%q) = %v, %v", w.name, got, err)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := loadExpectations(filepath.Join(t.TempDir(), "no-repo"), "."); err == nil {
		t.Error("missing golden hashes accepted")
	}
}

func TestHostScale(t *testing.T) {
	c := calibNominal.Seconds()
	if got := hostScale([]float64{2 * c, c, 2 * c}); !near(got, 0.5) {
		t.Errorf("host at half the reference speed: scale %v; want 0.5", got)
	}
	if got := hostScale([]float64{c / 2}); !near(got, 2) {
		t.Errorf("host at twice the reference speed: scale %v; want 2", got)
	}
	if d := calibrate(); d <= 0 {
		t.Errorf("calibration loop took %v", d)
	}
}
