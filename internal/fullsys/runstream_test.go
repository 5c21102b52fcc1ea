package fullsys

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"lva/internal/trace"
	"lva/internal/value"
)

// encodeGridStream synthesizes a multi-chunk, multi-thread grid stream with
// mixed loads/stores/approximate accesses and returns the encoded bytes
// plus its header. Threads interleave access by access.
func encodeGridStream(t testing.TB, n, threads int) ([]byte, trace.GridHeader) {
	return encodeThreaded(t, n, threads, func(i int) int { return i % threads })
}

// encodeBlockedStream is encodeGridStream with threads recorded in
// contiguous blocks (thread i*threads/n), the order the kernels record in.
func encodeBlockedStream(t testing.TB, n, threads int) ([]byte, trace.GridHeader) {
	return encodeThreaded(t, n, threads, func(i int) int { return i * threads / n })
}

func encodeThreaded(t testing.TB, n, threads int, threadOf func(i int) int) ([]byte, trace.GridHeader) {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewGridWriter(&buf, "unit", "k", 1)
	insts := uint64(0)
	for i := 0; i < n; i++ {
		thread := uint8(threadOf(i))
		pc := 0x400 + uint64(i%8)*4
		addr := 0x10000 + uint64(i*2654435761)%2048*64
		if i%5 == 0 {
			w.Access(pc, addr, value.Value{}, trace.Store, false, thread, insts)
		} else {
			w.Access(pc, addr, value.FromInt(int64(i%97)), trace.Load, i%2 == 0, thread, insts)
		}
		insts += 1 + uint64(i%7)
	}
	hdr, err := w.Finish(insts+5, nil)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes(), hdr
}

// decodeFlat materializes a grid stream into the in-memory trace format.
func decodeFlat(t testing.TB, encoded []byte) *trace.Trace {
	t.Helper()
	gr, err := trace.NewGridReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	flat := &trace.Trace{Name: "unit"}
	for {
		accs, _, err := gr.Next()
		if err == io.EOF {
			return flat
		}
		if err != nil {
			t.Fatal(err)
		}
		flat.Accesses = append(flat.Accesses, accs...)
	}
}

// TestRunStreamMatchesRun is the phase-2 streaming contract: chunked replay
// through bounded per-core queues must pick accesses in exactly the order
// the materialized Run does, so every counter — cycles, traffic, energy —
// is identical.
func TestRunStreamMatchesRun(t *testing.T) {
	for _, threads := range []int{1, 3, 4} {
		encoded, hdr := encodeGridStream(t, 20000, threads)
		if hdr.Chunks < 2 {
			t.Fatalf("stream too small to exercise chunking: %d chunks", hdr.Chunks)
		}
		flat := decodeFlat(t, encoded)

		for _, withApprox := range []bool{false, true} {
			cfg := DefaultConfig()
			if withApprox {
				cfg.Approx = approxCfg(4)
			}
			want := New(cfg).Run(flat)
			gr, err := trace.NewGridReader(bytes.NewReader(encoded))
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(cfg).RunStream(hdr.Threads, gr)
			if err != nil {
				t.Fatalf("RunStream: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("threads=%d approx=%v: streamed result differs\n got %+v\nwant %+v",
					threads, withApprox, got, want)
			}
		}
	}
}

func TestRunStreamPropagatesDecodeErrors(t *testing.T) {
	encoded, hdr := encodeGridStream(t, 20000, 4)
	gr, err := trace.NewGridReader(bytes.NewReader(encoded[:len(encoded)/2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig()).RunStream(hdr.Threads, gr); err == nil {
		t.Fatal("truncated stream must surface an error")
	}

	// A corrupt chunk mid-stream fails a multi-sim Replay as a whole: the
	// decode error comes back and no sim's partial result does. Chunk
	// headers are 8 bytes (count, payload size) after an 8-byte preamble;
	// an oversized count in the third chunk is rejected at decode.
	corrupt := append([]byte(nil), encoded...)
	off := 8
	for c := 0; c < 2; c++ {
		off += 8 + int(binary.LittleEndian.Uint32(corrupt[off+4:]))
	}
	binary.LittleEndian.PutUint32(corrupt[off:], 1<<30)
	gr, err = trace.NewGridReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(gr, hdr.Threads, []*Sim{New(DefaultConfig()), New(approxConfig(4))})
	if err == nil || !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("corrupt chunk: err = %v, want the decode error", err)
	}
	if res != nil {
		t.Fatalf("corrupt chunk: got %d partial results, want none", len(res))
	}
}

// approxConfig is DefaultConfig with an approximator of the given degree.
func approxConfig(degree int) Config {
	cfg := DefaultConfig()
	cfg.Approx = approxCfg(degree)
	return cfg
}

// replayConfigs are the multi-sim equivalence configurations: precise,
// LVA at the Figure 10/11 degrees, and LVA with the low-power lane.
func replayConfigs() []Config {
	cfgs := []Config{DefaultConfig()}
	for _, d := range []int{0, 2, 4, 8, 16} {
		cfgs = append(cfgs, approxConfig(d))
	}
	lane := approxConfig(4)
	lane.TrainingLane = DefaultTrainingLane()
	return append(cfgs, lane)
}

func newSims(cfgs []Config) []*Sim {
	sims := make([]*Sim, len(cfgs))
	for i, c := range cfgs {
		sims[i] = New(c)
	}
	return sims
}

// TestReplayMatchesIndependentRuns is the fan-out contract: one decode
// pass driving K sims in lockstep yields, for every sim, exactly the
// result of that configuration's own single-sim run and of Run over the
// materialized trace — on streams whose threads interleave finely and on
// streams recorded in contiguous thread blocks.
func TestReplayMatchesIndependentRuns(t *testing.T) {
	cfgs := replayConfigs()
	for _, tc := range []struct {
		name   string
		encode func(testing.TB, int, int) ([]byte, trace.GridHeader)
	}{
		{"interleaved", encodeGridStream},
		{"blocked", encodeBlockedStream},
	} {
		for _, threads := range []int{1, 3, 4} {
			encoded, hdr := tc.encode(t, 12000, threads)
			flat := decodeFlat(t, encoded)
			gr, err := trace.NewGridReader(bytes.NewReader(encoded))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Replay(gr, hdr.Threads, newSims(cfgs))
			if err != nil {
				t.Fatalf("%s/%d: Replay: %v", tc.name, threads, err)
			}
			fromMem, err := ReplayTrace(flat, newSims(cfgs))
			if err != nil {
				t.Fatalf("%s/%d: ReplayTrace: %v", tc.name, threads, err)
			}
			for i, cfg := range cfgs {
				gr, err := trace.NewGridReader(bytes.NewReader(encoded))
				if err != nil {
					t.Fatal(err)
				}
				alone, err := New(cfg).RunStream(hdr.Threads, gr)
				if err != nil {
					t.Fatalf("RunStream: %v", err)
				}
				run := New(cfg).Run(flat)
				if !reflect.DeepEqual(got[i], alone) || !reflect.DeepEqual(fromMem[i], alone) || !reflect.DeepEqual(run, alone) {
					t.Fatalf("%s/%d threads, config %d: fan-out result differs from the single-sim run\nreplay %+v\nmemory %+v\nrun    %+v\nalone  %+v",
						tc.name, threads, i, got[i], fromMem[i], run, alone)
				}
			}
		}
	}
}

func TestReplayRejectsMixedCoreCounts(t *testing.T) {
	two := DefaultConfig()
	two.Cores = 2
	encoded, hdr := encodeGridStream(t, 100, 4)
	gr, err := trace.NewGridReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(gr, hdr.Threads, []*Sim{New(DefaultConfig()), New(two)}); err == nil {
		t.Fatal("sims with different core counts cannot share a queue")
	}
}

// TestReplayQueueMemoryIsBounded checks the shared queue's block
// accounting: blocks return to the free list and are reused, and no more
// are ever allocated than the peak of live (decoded, not yet released)
// accesses fills, plus one partly filled block per core.
func TestReplayQueueMemoryIsBounded(t *testing.T) {
	const n = 200000
	for _, tc := range []struct {
		name   string
		encode func(testing.TB, int, int) ([]byte, trace.GridHeader)
		// maxLive bounds the peak live accesses. Blocks are released
		// whole, so when threads interleave each core holds at most the
		// block its slowest cursor is in plus the one being filled,
		// whatever the stream length; when threads run in blocks, about
		// three quarters of the stream is decoded before the first step.
		maxLive uint64
	}{
		{"interleaved", encodeGridStream, 3 * 4 * blockAccesses},
		{"blocked", encodeBlockedStream, n * 8 / 10},
	} {
		encoded, hdr := tc.encode(t, n, 4)
		gr, err := trace.NewGridReader(bytes.NewReader(encoded))
		if err != nil {
			t.Fatal(err)
		}
		// Two sims are enough for a block to wait on a lagging cursor.
		_, q, err := replay(gr, hdr.Threads, newSims([]Config{DefaultConfig(), approxConfig(16)}))
		if err != nil {
			t.Fatal(err)
		}
		cores := DefaultConfig().Cores
		t.Logf("%s: %d blocks allocated, %d released, peak live %d accesses", tc.name, q.allocs, q.released, q.peakLive)
		if q.accesses != n {
			t.Fatalf("%s: queue saw %d accesses, want %d", tc.name, q.accesses, n)
		}
		if bound := int(q.peakLive/blockAccesses) + cores; q.allocs > bound {
			t.Errorf("%s: %d blocks allocated, bound %d (peak live %d accesses)", tc.name, q.allocs, bound, q.peakLive)
		}
		if q.released == 0 || q.allocs >= n/blockAccesses {
			t.Errorf("%s: blocks must be released and reused: %d allocated, %d released for %d accesses",
				tc.name, q.allocs, q.released, n)
		}
		if q.peakLive > tc.maxLive {
			t.Errorf("%s: peak live %d accesses exceeds %d", tc.name, q.peakLive, tc.maxLive)
		}
	}
}
