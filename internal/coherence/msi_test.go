package coherence

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

const blk = uint64(0x1000)

func TestInitialStateInvalid(t *testing.T) {
	d := NewDirectory(4)
	if d.StateOf(blk) != Invalid {
		t.Fatal("unknown block must be Invalid")
	}
	if d.Sharers(blk) != nil {
		t.Fatal("unknown block must have no sharers")
	}
}

func TestLoadGrantsShared(t *testing.T) {
	d := NewDirectory(4)
	act := d.Load(blk, 0)
	if act.FlushFrom != -1 || act.Invalidate != 0 {
		t.Fatalf("clean load must need nothing: %+v", act)
	}
	if d.StateOf(blk) != Shared {
		t.Fatalf("state = %v", d.StateOf(blk))
	}
	d.Load(blk, 2)
	sh := d.Sharers(blk)
	if len(sh) != 2 || sh[0] != 0 || sh[1] != 2 {
		t.Fatalf("sharers = %v", sh)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	d := NewDirectory(4)
	d.Load(blk, 0)
	d.Load(blk, 1)
	d.Load(blk, 2)
	act := d.Store(blk, 0)
	if act.FlushFrom != -1 {
		t.Fatalf("no dirty owner to flush: %+v", act)
	}
	if act.Invalidate != 1<<1|1<<2 {
		t.Fatalf("invalidate mask = %#b, want nodes 1 and 2", act.Invalidate)
	}
	if d.StateOf(blk) != Modified {
		t.Fatalf("state = %v", d.StateOf(blk))
	}
	if sh := d.Sharers(blk); len(sh) != 1 || sh[0] != 0 {
		t.Fatalf("sharers after store = %v", sh)
	}
	if d.Invalidations != 2 {
		t.Fatalf("invalidations = %d", d.Invalidations)
	}
}

func TestLoadFlushesRemoteDirty(t *testing.T) {
	d := NewDirectory(4)
	d.Store(blk, 1)
	act := d.Load(blk, 0)
	if act.FlushFrom != 1 {
		t.Fatalf("load must flush from the dirty owner: %+v", act)
	}
	if d.StateOf(blk) != Shared {
		t.Fatal("after flush the block is Shared")
	}
	if d.Flushes != 1 {
		t.Fatalf("flushes = %d", d.Flushes)
	}
	sh := d.Sharers(blk)
	if len(sh) != 2 {
		t.Fatalf("both nodes share after downgrade: %v", sh)
	}
}

func TestStoreFlushesRemoteDirty(t *testing.T) {
	d := NewDirectory(4)
	d.Store(blk, 1)
	act := d.Store(blk, 2)
	if act.FlushFrom != 1 {
		t.Fatalf("store must flush the previous owner: %+v", act)
	}
	if act.Invalidate != 1<<1 {
		t.Fatalf("previous owner must be invalidated: %+v", act)
	}
	if d.StateOf(blk) != Modified || d.Sharers(blk)[0] != 2 {
		t.Fatal("ownership must transfer")
	}
}

func TestOwnStoreUpgradeNoFlush(t *testing.T) {
	d := NewDirectory(4)
	d.Load(blk, 0)
	act := d.Store(blk, 0)
	if act.FlushFrom != -1 || act.Invalidate != 0 {
		t.Fatalf("upgrading sole sharer needs nothing: %+v", act)
	}
}

func TestEvict(t *testing.T) {
	d := NewDirectory(4)
	d.Load(blk, 0)
	d.Load(blk, 1)
	d.Evict(blk, 0)
	if sh := d.Sharers(blk); len(sh) != 1 || sh[0] != 1 {
		t.Fatalf("sharers after evict = %v", sh)
	}
	d.Evict(blk, 1)
	if d.StateOf(blk) != Invalid {
		t.Fatal("last evict must drop the line")
	}
	// Evicting a dirty owner invalidates the line.
	d.Store(blk, 2)
	d.Evict(blk, 2)
	if d.StateOf(blk) != Invalid {
		t.Fatal("owner evict must invalidate")
	}
	// Evicting an unknown block is a no-op.
	d.Evict(0xDEAD, 0)
}

func TestNewDirectoryBounds(t *testing.T) {
	// The panic message is a documented contract (see NewDirectory's
	// comment and the nopanic analyzer): it must name the valid range.
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("NewDirectory(%d) must panic", n)
					return
				}
				want := fmt.Sprintf("coherence: node count %d out of range [1,64]", n)
				if r != want {
					t.Errorf("NewDirectory(%d) panic = %v, want %q", n, r, want)
				}
			}()
			NewDirectory(n)
		}()
	}
	// Boundary values must not panic.
	if NewDirectory(1) == nil || NewDirectory(64) == nil {
		t.Fatal("in-range node counts must build a directory")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings")
	}
}

// TestSingleOwnerInvariant drives random load/store/evict sequences and
// checks MSI's core invariant: Modified implies exactly one sharer.
func TestSingleOwnerInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDirectory(4)
		blocks := []uint64{0x100, 0x200}
		for _, op := range ops {
			b := blocks[int(op>>1)%2]
			node := int(op>>3) % 4
			switch op % 3 {
			case 0:
				d.Load(b, node)
			case 1:
				d.Store(b, node)
			case 2:
				d.Evict(b, node)
			}
			for _, bb := range blocks {
				if d.StateOf(bb) == Modified && len(d.Sharers(bb)) != 1 {
					return false
				}
				if d.StateOf(bb) == Invalid && len(d.Sharers(bb)) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refLine and refDir are a map-backed model of the directory's protocol,
// the reference the open-addressed table must match.
type refLine struct {
	state   State
	sharers uint64
	owner   int
}

type refDir struct {
	lines         map[uint64]*refLine
	invalidations uint64
	flushes       uint64
}

func (r *refDir) get(b uint64) *refLine {
	l := r.lines[b]
	if l == nil {
		l = &refLine{owner: -1}
		r.lines[b] = l
	}
	return l
}

func (r *refDir) load(b uint64, node int) Action {
	l := r.get(b)
	act := Action{FlushFrom: -1}
	if l.state == Modified && l.owner != node {
		act.FlushFrom = l.owner
		r.flushes++
	}
	if l.state != Shared {
		l.state, l.owner = Shared, -1
	}
	l.sharers |= 1 << uint(node)
	return act
}

func (r *refDir) store(b uint64, node int) Action {
	l := r.get(b)
	act := Action{FlushFrom: -1}
	if l.state == Modified && l.owner != node {
		act.FlushFrom = l.owner
		r.flushes++
	}
	for n := 0; n < 64; n++ {
		if n != node && l.sharers&(1<<uint(n)) != 0 {
			act.Invalidate |= 1 << uint(n)
			r.invalidations++
		}
	}
	l.state, l.owner, l.sharers = Modified, node, 1<<uint(node)
	return act
}

func (r *refDir) evict(b uint64, node int) {
	l := r.lines[b]
	if l == nil {
		return
	}
	l.sharers &^= 1 << uint(node)
	if l.state == Modified && l.owner == node {
		l.state, l.owner = Invalid, -1
	}
	if l.sharers == 0 {
		delete(r.lines, b)
	}
}

// TestDirectoryMatchesReferenceModel drives a long random request stream
// over enough blocks to grow the table several times and to exercise
// deletion inside probe clusters, checking every action, every block's
// state and sharers, and the counters against the map-backed model.
func TestDirectoryMatchesReferenceModel(t *testing.T) {
	d := NewDirectory(4)
	ref := &refDir{lines: make(map[uint64]*refLine)}
	x := uint64(88172645463325252)
	const blocks = 3000
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b := 0x40000 + (x>>8)%blocks*64
		node := int(x>>40) % 4
		switch x % 7 {
		case 0, 1, 2:
			if got, want := d.Load(b, node), ref.load(b, node); got != want {
				t.Fatalf("op %d: Load(%#x,%d) = %+v, want %+v", i, b, node, got, want)
			}
		case 3:
			if got, want := d.Store(b, node), ref.store(b, node); got != want {
				t.Fatalf("op %d: Store(%#x,%d) = %+v, want %+v", i, b, node, got, want)
			}
		case 4:
			wantOK := ref.lines[b] == nil || ref.lines[b].state != Modified
			want := Action{FlushFrom: -1}
			if wantOK {
				want = ref.store(b, node)
			}
			if got, ok := d.Upgrade(b, node); got != want || ok != wantOK {
				t.Fatalf("op %d: Upgrade(%#x,%d) = %+v,%v, want %+v,%v", i, b, node, got, ok, want, wantOK)
			}
		default:
			d.Evict(b, node)
			ref.evict(b, node)
		}
	}
	for k := uint64(0); k < blocks; k++ {
		b := 0x40000 + k*64
		want := Invalid
		var sharers []int
		if l := ref.lines[b]; l != nil {
			want = l.state
			for n := 0; n < 4; n++ {
				if l.sharers&(1<<uint(n)) != 0 {
					sharers = append(sharers, n)
				}
			}
		}
		if got := d.StateOf(b); got != want {
			t.Fatalf("block %#x: state %v, want %v", b, got, want)
		}
		if got := d.Sharers(b); fmt.Sprint(got) != fmt.Sprint(sharers) {
			t.Fatalf("block %#x: sharers %v, want %v", b, got, sharers)
		}
	}
	if d.Invalidations != ref.invalidations || d.Flushes != ref.flushes {
		t.Fatalf("counters: %d invalidations, %d flushes; want %d, %d",
			d.Invalidations, d.Flushes, ref.invalidations, ref.flushes)
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

func TestSteadyStateRequestsAllocateNothing(t *testing.T) {
	d := NewDirectory(4)
	// A working set of L1-sized scale, churned by evictions: once the
	// table has grown to it, requests reuse slots.
	const blocks = 2048
	op := func(i int) {
		b := uint64(0x100000 + (i*7919)%blocks*64)
		node := i % 4
		switch i % 5 {
		case 0, 1:
			d.Load(b, node)
		case 2:
			d.Store(b, node)
		case 3:
			d.Upgrade(b, (node+1)%4)
		default:
			d.Evict(b, node)
		}
	}
	for i := 0; i < 4*blocks; i++ {
		op(i)
	}
	if n := mallocs(func() {
		for i := 0; i < 200000; i++ {
			op(i)
		}
	}); n != 0 {
		t.Fatalf("every run of 200000 steady-state requests made at least %d heap allocations, want 0", n)
	}
}
