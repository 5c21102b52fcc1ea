package prefetch

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{GHBEntries: 16, IndexEntries: 16, Degree: 4, BlockBytes: 64}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{GHBEntries: 0, IndexEntries: 16, Degree: 1, BlockBytes: 64},
		{GHBEntries: 16, IndexEntries: 0, Degree: 1, BlockBytes: 64},
		{GHBEntries: 16, IndexEntries: 15, Degree: 1, BlockBytes: 64}, // not pow2
		{GHBEntries: 16, IndexEntries: 16, Degree: -1, BlockBytes: 64},
		{GHBEntries: 16, IndexEntries: 16, Degree: 1, BlockBytes: 60},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on invalid config")
		}
	}()
	New(Config{})
}

func TestDeltaCorrelation(t *testing.T) {
	p := New(smallConfig())
	const pc = 0x400
	// Misses with a constant stride of 2 blocks (128 B).
	p.OnMiss(pc, 0)
	p.OnMiss(pc, 128)
	targets := p.OnMiss(pc, 256)
	if len(targets) != 4 {
		t.Fatalf("degree-4 prefetch must produce 4 targets, got %d", len(targets))
	}
	want := []uint64{384, 512, 640, 768}
	for i, w := range want {
		if targets[i] != w {
			t.Fatalf("target %d = %d, want %d", i, targets[i], w)
		}
	}
	if p.Stats().DeltaHit == 0 {
		t.Fatal("delta pattern must be recognized")
	}
}

func TestNextLineFallback(t *testing.T) {
	p := New(smallConfig())
	// Random (non-repeating-delta) misses: first few fall back next-line.
	targets := p.OnMiss(0x400, 64000)
	if len(targets) != 4 {
		t.Fatalf("fallback must still issue degree targets, got %d", len(targets))
	}
	if targets[0] != 64000+64 {
		t.Fatalf("next-line target = %d", targets[0])
	}
	if p.Stats().NextLine == 0 {
		t.Fatal("next-line fallback must be counted")
	}
}

func TestDegreeZeroIssuesNothing(t *testing.T) {
	cfg := smallConfig()
	cfg.Degree = 0
	p := New(cfg)
	if got := p.OnMiss(0x400, 0); got != nil {
		t.Fatalf("degree 0 must not prefetch, got %v", got)
	}
}

func TestPerPCHistories(t *testing.T) {
	p := New(smallConfig())
	// Interleave two PCs with different strides; each must be tracked
	// separately through the index table's link chains. (0x101 and 0x202
	// map to distinct slots of the 16-entry test index table.)
	for i := 0; i < 3; i++ {
		p.OnMiss(0x101, uint64(i)*64)
		p.OnMiss(0x202, uint64(i)*320)
	}
	// OnMiss's result is valid until the next call: check each at once.
	if t1 := p.OnMiss(0x101, 3*64); t1[0] != 4*64 {
		t.Fatalf("pc1 stride target = %d, want %d", t1[0], 4*64)
	}
	if t2 := p.OnMiss(0x202, 3*320); t2[0] != 4*320 {
		t.Fatalf("pc2 stride target = %d, want %d", t2[0], 4*320)
	}
}

func TestFIFOWrapInvalidatesStaleLinks(t *testing.T) {
	cfg := smallConfig() // 16-entry GHB
	p := New(cfg)
	p.OnMiss(0x100, 0)
	p.OnMiss(0x100, 64)
	// Flood with other PCs so the GHB wraps and 0x100's chain is stale.
	for i := 0; i < 40; i++ {
		p.OnMiss(uint64(0x1000+i*8), uint64(100000+i*6400))
	}
	// Must not crash or follow stale links; falls back to next-line.
	targets := p.OnMiss(0x100, 128)
	if len(targets) == 0 {
		t.Fatal("wrapped history must still prefetch something")
	}
}

func TestNoDuplicateTargets(t *testing.T) {
	f := func(addrs []uint16) bool {
		p := New(smallConfig())
		for _, a := range addrs {
			targets := p.OnMiss(0x400, uint64(a)*64)
			seen := map[uint64]bool{}
			for _, tg := range targets {
				if seen[tg] {
					return false
				}
				seen[tg] = true
			}
			if len(targets) > p.Config().Degree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	p := New(smallConfig())
	p.OnMiss(0x400, 0)
	p.OnMiss(0x400, 64)
	p.Reset()
	if p.Stats() != (Stats{}) {
		t.Fatal("Reset must clear stats")
	}
	// After reset the old stride must be gone: fallback to next-line.
	targets := p.OnMiss(0x400, 128)
	if targets[0] != 192 {
		t.Fatalf("post-reset target = %d, want next-line 192", targets[0])
	}
}

func TestNegativeDeltaPattern(t *testing.T) {
	p := New(smallConfig())
	p.OnMiss(0x400, 1024)
	p.OnMiss(0x400, 960)
	targets := p.OnMiss(0x400, 896)
	if targets[0] != 832 {
		t.Fatalf("descending stride target = %d, want 832", targets[0])
	}
}

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

func TestOnMissAllocatesNothing(t *testing.T) {
	for _, degree := range []int{1, 4, 16} {
		cfg := DefaultConfig()
		cfg.Degree = degree
		p := New(cfg)
		issued := 0
		n := mallocs(func() {
			for i := 0; i < 50000; i++ {
				// Strided PCs take the delta path, scattered ones the
				// next-line fallback.
				pc := uint64(0x400 + i%16*4)
				addr := uint64(i%16)<<20 + uint64(i/16)*uint64(64*(1+i%3))
				issued += len(p.OnMiss(pc, addr))
			}
		})
		if n != 0 {
			t.Errorf("degree %d: every run of 50000 misses made at least %d heap allocations, want 0", degree, n)
		}
		if st := p.Stats(); issued == 0 || st.DeltaHit == 0 || st.NextLine == 0 {
			t.Errorf("degree %d: stream must exercise both paths: %+v", degree, st)
		}
	}
}
