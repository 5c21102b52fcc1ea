package fullsys

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"lva/internal/trace"
	"lva/internal/value"
)

// scanAdvance is the pick loop without run-ahead: it rescans every core
// before each step and steps the one whose next access issues earliest,
// the lowest core id on equal keys. It is the naive oracle advance must
// match pick for pick.
func (s *Sim) scanAdvance(q *queue, cores []*coreState) {
	for {
		var next *coreState
		var nextKey uint64
		for _, c := range cores {
			if c.pos == c.blk.n {
				if c.active {
					return
				}
				continue
			}
			key := c.cycleQ + uint64(c.blk.accs[c.pos].Gap)
			if next == nil || key < nextKey {
				next, nextKey = c, key
			}
		}
		if next == nil {
			return
		}
		s.step(next, &next.blk.accs[next.pos])
		next.pos++
		if next.pos == blockAccesses {
			b := next.blk
			next.blk, next.pos = b.next, 0
			q.leave(b)
		}
	}
}

// replayScan is replay driven by scanAdvance.
func replayScan(src trace.ChunkSource, threads int, sims []*Sim) ([]Result, error) {
	q := newQueue(sims[0].cfg.Cores, len(sims))
	cores := make([][]*coreState, len(sims))
	for i, s := range sims {
		cores[i] = s.newCores(q, threads)
	}
	for {
		accs, _, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		q.push(accs)
		for i, s := range sims {
			s.scanAdvance(q, cores[i])
		}
	}
	res := make([]Result, len(sims))
	for i, s := range sims {
		for _, c := range cores[i] {
			c.active = false
		}
		s.scanAdvance(q, cores[i])
		res[i] = s.finish(cores[i])
	}
	return res, nil
}

// tieTrace builds an n-access trace whose threads interleave access by
// access and all follow one gap pattern: runs of Gap 0 broken by equal
// gaps. Cores therefore often reach the same pick key, and the tie goes to
// the lower core id. The threads load and store overlapping blocks of a
// footprint larger than the L1, so the order of tied accesses shows in
// coherence traffic and in L2-bank and link contention.
func tieTrace(n, threads int) *trace.Trace {
	tr := &trace.Trace{Name: "ties"}
	for i := 0; i < n; i++ {
		t, j := i%threads, i/threads
		a := trace.Access{
			PC:     0x400 + uint64(j%8)*4,
			Addr:   0x10000 + uint64((j*5+t*3)%600)*64,
			Thread: uint8(t),
		}
		if j%8 == 7 {
			a.Gap = 12
		}
		if j%6 == 0 {
			a.Op = trace.Store
		} else {
			a.Op, a.Approx, a.Value = trace.Load, j%2 == 0, value.FromInt(int64(j%13))
		}
		tr.Append(a)
	}
	return tr
}

// gridSource opens an encoded grid stream as a chunk source.
func gridSource(t testing.TB, encoded []byte) trace.ChunkSource {
	gr, err := trace.NewGridReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// TestAdvanceMatchesScanReference checks the run-ahead pick loop against
// the scan-every-step oracle: full Results, per-core stats and energy
// tally included, must be identical on interleaved and thread-blocked
// streams and on streams built to tie pick keys across cores.
func TestAdvanceMatchesScanReference(t *testing.T) {
	lane := approxConfig(4)
	lane.TrainingLane = DefaultTrainingLane()
	cfgs := []Config{DefaultConfig(), approxConfig(0), approxConfig(16), lane}
	for _, threads := range []int{1, 3, 4} {
		interleaved, _ := encodeGridStream(t, 12000, threads)
		blocked, _ := encodeBlockedStream(t, 12000, threads)
		ties := tieTrace(12000, threads).Accesses
		for _, st := range []struct {
			name string
			src  func() trace.ChunkSource
		}{
			{"interleaved", func() trace.ChunkSource { return gridSource(t, interleaved) }},
			{"blocked", func() trace.ChunkSource { return gridSource(t, blocked) }},
			{"ties", func() trace.ChunkSource { return &sliceSource{accs: ties} }},
		} {
			got, _, err := replay(st.src(), threads, newSims(cfgs))
			if err != nil {
				t.Fatalf("%s/%d: replay: %v", st.name, threads, err)
			}
			want, err := replayScan(st.src(), threads, newSims(cfgs))
			if err != nil {
				t.Fatalf("%s/%d: reference replay: %v", st.name, threads, err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s/%d threads, config %d: run-ahead result differs from the scan reference\n got %+v\nwant %+v",
						st.name, threads, i, got[i], want[i])
				}
			}
		}
	}
}

// steadyReplay is a multi-sim replay kept open across passes over one
// in-memory trace: each pass pushes the whole trace into the shared queue
// again, advancing every sim after each window, then drains every sim as
// at the end of a stream. Each pass therefore steps every access once per
// sim and leaves no backlog to creep from pass to pass. After a warm-up
// pass the caches, directory slots and queue blocks are in place, so a
// pass measures steady-state steps.
type steadyReplay struct {
	q       *queue
	sims    []*Sim
	cores   [][]*coreState
	accs    []trace.Access
	threads int
}

func newSteadyReplay(tr *trace.Trace, cfgs []Config) *steadyReplay {
	r := &steadyReplay{sims: newSims(cfgs), accs: tr.Accesses, threads: traceThreads(tr)}
	r.q = newQueue(cfgs[0].Cores, len(cfgs))
	for _, s := range r.sims {
		r.cores = append(r.cores, s.newCores(r.q, r.threads))
	}
	return r
}

func (r *steadyReplay) pass() {
	for w := r.accs; len(w) > 0; {
		n := min(len(w), blockAccesses)
		r.q.push(w[:n])
		w = w[n:]
		for i, s := range r.sims {
			s.advance(r.q, r.cores[i])
		}
	}
	for i, s := range r.sims {
		for _, c := range r.cores[i] {
			c.active = false
		}
		s.advance(r.q, r.cores[i])
		for _, c := range r.cores[i] {
			c.active = c.id < r.threads
		}
	}
}

// steadyTrace is the steady-state replay input: four threads interleaved
// access by access over a footprint eight times the L1, so loads miss
// often. Each core receives exactly one queue block per pass, so every
// pass fills and releases blocks at the same offsets and the queue needs
// no new block after the first.
func steadyTrace(tb testing.TB) *trace.Trace {
	encoded, _ := encodeGridStream(tb, 4*blockAccesses, 4)
	return decodeFlat(tb, encoded)
}

// figureConfigs are the six Figure 10/11 phase-2 configurations: precise
// and LVA at degrees 0, 2, 4, 8 and 16.
func figureConfigs() []Config { return replayConfigs()[:6] }

// mallocs returns the heap allocations fn performs, counted exactly
// (testing.AllocsPerRun truncates a fractional per-call rate). The count
// is process-wide, and the runtime itself now and then allocates — growing
// a timer heap, starting a GC worker — so fn runs at GOMAXPROCS 1, as in
// AllocsPerRun, up to three times, and the fewest allocations of any run
// are returned: a runtime one-off does not repeat, while an allocation in
// fn shows in every run.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 3 && fewest > 0; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestReplayStepsAllocateNothing pins the phase-2 step to zero heap
// allocations in steady state: a warmed six-config replay over a stream
// that misses often, so the per-core pending-miss and MSHR buffers fill
// and drain.
func TestReplayStepsAllocateNothing(t *testing.T) {
	r := newSteadyReplay(steadyTrace(t), figureConfigs())
	r.pass()
	r.pass()
	if n := mallocs(r.pass); n != 0 {
		t.Fatalf("every pass of %d accesses through %d sims made at least %d heap allocations, want 0",
			len(r.accs), len(r.sims), n)
	}
	if misses := r.sims[0].res.L1LoadMisses; misses*4 < r.sims[0].res.Loads {
		t.Fatalf("precise sim missed %d of %d loads: the stream must miss often", misses, r.sims[0].res.Loads)
	}
}

// BenchmarkReplayStep is the phase-2 per-layer cost: steady-state time and
// allocations per access for the six Figure 10/11 configurations replayed
// in lockstep over an in-memory stream. One op is one pass of the stream;
// ns/access is per access per configuration.
func BenchmarkReplayStep(b *testing.B) {
	r := newSteadyReplay(steadyTrace(b), figureConfigs())
	r.pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.accs)*len(r.sims)), "ns/access")
}
