package memsim

import (
	"math"
	"runtime"
	"testing"
)

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

// assertZeroAllocs pins a per-load path to zero steady-state allocations —
// the tentpole perf contract: after warmup, no load/store on any attachment
// path may touch the heap. It counts every malloc over runs of 200 calls,
// so one allocation in every run fails.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up, as testing.AllocsPerRun does
	if n := mallocs(func() {
		for i := 0; i < 200; i++ {
			fn()
		}
	}); n != 0 {
		t.Errorf("%s: every run of 200 calls made at least %d allocs, want 0", name, n)
	}
}

func TestPerLoadPathsAllocateNothing(t *testing.T) {
	t.Run("load hit", func(t *testing.T) {
		sim := New(DefaultConfig())
		sim.LoadFloat(0x400, 0x1000, 1, false) // warm the block
		assertZeroAllocs(t, "float hit", func() { sim.LoadFloat(0x400, 0x1000, 1, false) })
		assertZeroAllocs(t, "int hit", func() { sim.LoadInt(0x404, 0x1008, 2, true) })
	})

	t.Run("store hit and miss", func(t *testing.T) {
		sim := New(DefaultConfig())
		sim.Store(0x400, 0x1000)
		addr := uint64(0x100000)
		assertZeroAllocs(t, "store hit", func() { sim.Store(0x400, 0x1000) })
		assertZeroAllocs(t, "store miss", func() { sim.Store(0x400, addr); addr += 64 })
	})

	t.Run("covered miss delay-0", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Approx.ValueDelay = 0
		sim := New(cfg)
		// Warm the approximator table for a handful of static PCs so the
		// steady state retrains existing entries (LHB backing reused).
		for i := 0; i < 256; i++ {
			sim.LoadInt(uint64(0x400+i%8*4), uint64(0x100000+i*64), 10, true)
		}
		addr := uint64(0x800000)
		i := 0
		assertZeroAllocs(t, "covered miss", func() {
			sim.LoadInt(uint64(0x400+i%8*4), addr, 10, true)
			addr += 64
			i++
		})
	})

	t.Run("delayed training steady state", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Approx.ValueDelay = 4
		sim := New(cfg)
		for i := 0; i < 256; i++ {
			sim.LoadInt(uint64(0x400+i%8*4), uint64(0x100000+i*64), 10, true)
		}
		addr := uint64(0x800000)
		i := 0
		assertZeroAllocs(t, "delayed training", func() {
			// Miss (enqueue) followed by hits (countdown ticks): the
			// pending ring is at steady-state capacity, so neither the
			// enqueue nor the deferred commit allocates.
			sim.LoadInt(uint64(0x400+i%8*4), addr, 10, true)
			sim.LoadFloat(0x500, 0x1000, 1, false)
			sim.LoadFloat(0x500, 0x1000, 1, false)
			addr += 64
			i++
		})
	})

	t.Run("prefetch attach", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Attach = AttachPrefetch
		sim := New(cfg)
		// Deltas come in equal pairs of 2n+5 blocks: the second of each
		// pair matches the stride and prefetches up to 4 strides ahead,
		// the first falls back to next-line (4 blocks ahead). No later
		// address lands in either window and addresses only grow, so
		// every load misses and every miss runs the prefetcher.
		addr := uint64(0x100000)
		n := 0
		load := func() {
			sim.LoadInt(0x400, addr, 10, false)
			addr += uint64(2*(n/2)+5) * 64
			n++
		}
		for i := 0; i < 64; i++ {
			load()
		}
		before, n0 := sim.Result(), n
		const loads = 20000
		allocs := mallocs(func() {
			for i := 0; i < loads; i++ {
				load()
			}
		})
		after := sim.Result()
		if got, want := after.LoadMisses-before.LoadMisses, uint64(n-n0); got != want {
			t.Fatalf("%d of %d loads missed: the stream must miss on every load", got, want)
		}
		if after.Prefetch.DeltaHit == before.Prefetch.DeltaHit || after.Prefetch.NextLine == before.Prefetch.NextLine {
			t.Fatalf("stream must exercise both prefetch paths: %+v", after.Prefetch)
		}
		if allocs != 0 {
			t.Errorf("prefetch miss: every run of %d misses made at least %d heap allocations, want 0", loads, allocs)
		}
	})

	t.Run("capture within preallocated capacity", func(t *testing.T) {
		sim := New(DefaultConfig())
		sim.CaptureSized("alloc-test", 4096)
		sim.LoadFloat(0x400, 0x1000, 1, false)
		assertZeroAllocs(t, "captured hit", func() { sim.LoadFloat(0x400, 0x1000, 1, false) })
		if got := len(sim.TakeTrace().Accesses); got == 0 {
			t.Fatal("capture recorded nothing")
		}
	})
}
