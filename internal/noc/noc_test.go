package noc

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Width: 0, Height: 2, CtrlFlits: 1, DataFlits: 5},
		{Width: 2, Height: 2, CtrlFlits: 0, DataFlits: 5},
		{Width: 2, Height: 2, CtrlFlits: 1, DataFlits: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if DefaultConfig().Nodes() != 4 {
		t.Fatal("2x2 mesh must have 4 nodes")
	}
}

func TestXYRoute(t *testing.T) {
	m := New(Config{Width: 3, Height: 3, RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5})
	// Node layout: 0 1 2 / 3 4 5 / 6 7 8. XY: X first, then Y.
	route := m.Route(0, 8)
	want := []int{0, 1, 2, 5, 8}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
	if m.Hops(0, 8) != 4 {
		t.Fatalf("hops = %d", m.Hops(0, 8))
	}
	if m.Hops(4, 4) != 0 {
		t.Fatal("self route must have 0 hops")
	}
}

func TestRouteAdjacency(t *testing.T) {
	// Property: every consecutive pair in any route is mesh-adjacent.
	m := New(Config{Width: 4, Height: 4, RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5})
	f := func(s, d uint8) bool {
		src, dst := int(s%16), int(d%16)
		route := m.Route(src, dst)
		if route[0] != src || route[len(route)-1] != dst {
			return false
		}
		for i := 0; i+1 < len(route); i++ {
			ax, ay := route[i]%4, route[i]/4
			bx, by := route[i+1]%4, route[i+1]/4
			manhattan := abs(ax-bx) + abs(ay-by)
			if manhattan != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestLatencyUncontended(t *testing.T) {
	m := New(DefaultConfig())
	// 0 -> 3 in a 2x2 mesh: 2 hops, each 3 (router) + 1 (link); a 1-flit
	// control packet adds no serialization beyond the last hop.
	arr := m.SendCtrl(0, 3, 100)
	if want := uint64(100 + 2*4); arr != want {
		t.Fatalf("ctrl arrival = %d, want %d", arr, want)
	}
	// 5-flit data packet: +4 cycles of tail serialization (fresh mesh so
	// the control packet above doesn't contend).
	m = New(DefaultConfig())
	arr = m.SendData(0, 3, 100)
	if want := uint64(100 + 2*4 + 4); arr != want {
		t.Fatalf("data arrival = %d, want %d", arr, want)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	m := New(DefaultConfig())
	if got := m.SendData(2, 2, 55); got != 55 {
		t.Fatalf("self send arrival = %d", got)
	}
	if m.Stats().FlitHops != 0 {
		t.Fatal("self send must not count flit-hops")
	}
}

func TestContentionSerializes(t *testing.T) {
	m := New(DefaultConfig())
	first := m.SendData(0, 1, 100)
	second := m.SendData(0, 1, 100)
	if second <= first {
		t.Fatalf("contending packet must arrive later: %d vs %d", second, first)
	}
	if second-first != 5 {
		t.Fatalf("serialization delay = %d, want 5 flits", second-first)
	}
}

func TestFlitHopAccounting(t *testing.T) {
	m := New(DefaultConfig())
	m.SendData(0, 3, 0) // 2 hops x 5 flits
	m.SendCtrl(1, 0, 0) // 1 hop x 1 flit
	st := m.Stats()
	if st.FlitHops != 11 {
		t.Fatalf("flit-hops = %d, want 11", st.FlitHops)
	}
	if st.Packets != 2 {
		t.Fatalf("packets = %d", st.Packets)
	}
}

func TestMonotonicTime(t *testing.T) {
	// Property: arrival >= departure for any sequence of sends issued in
	// nondecreasing time order.
	f := func(pairs []uint8) bool {
		m := New(DefaultConfig())
		now := uint64(0)
		for _, p := range pairs {
			src, dst := int(p%4), int(p/4)%4
			arr := m.SendData(src, dst, now)
			if arr < now {
				return false
			}
			now += uint64(p % 3)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	m := New(DefaultConfig())
	m.SendData(0, 3, 0)
	m.Reset()
	if m.Stats() != (Stats{}) {
		t.Fatal("Reset must clear stats")
	}
	// Link reservations must be cleared too: a fresh packet at t=0 sees
	// the uncontended latency again.
	if got := m.SendData(0, 1, 0); got != 4+4 {
		t.Fatalf("post-reset latency = %d", got)
	}
}

// refMesh is the link-reservation model with routes computed per packet
// and reservations keyed by (from, to) node pairs: the reference the
// precomputed dense-link mesh must match.
type refMesh struct {
	m        *Mesh
	linkFree map[[2]int]uint64
	flitHops uint64
}

func (r *refMesh) send(src, dst, flits int, now uint64) uint64 {
	if src == dst {
		return now
	}
	path := r.m.Route(src, dst)
	t := now
	for i := 0; i+1 < len(path); i++ {
		l := [2]int{path[i], path[i+1]}
		depart := max(t, r.linkFree[l])
		r.linkFree[l] = depart + uint64(flits)
		t = depart + r.m.cfg.RouterCycles + r.m.cfg.LinkCycles
		r.flitHops += uint64(flits)
	}
	return t + uint64(flits) - 1
}

// TestSendMatchesReferenceModel drives contended random traffic through
// meshes of several shapes and checks every arrival time, every hop count
// and the flit-hop total (sum of flits x XY route length) against the
// reference model.
func TestSendMatchesReferenceModel(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {4, 3}, {1, 4}, {5, 1}} {
		cfg := Config{Width: shape[0], Height: shape[1], RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5}
		n := cfg.Nodes()
		f := func(sends []uint16) bool {
			m := New(cfg)
			ref := &refMesh{m: New(cfg), linkFree: make(map[[2]int]uint64)}
			now := uint64(0)
			for _, p := range sends {
				src, dst := int(p)%n, int(p>>4)%n
				flits := 1 + int(p>>8)%6
				if m.Send(src, dst, flits, now) != ref.send(src, dst, flits, now) {
					return false
				}
				if m.Hops(src, dst) != len(m.Route(src, dst))-1 {
					return false
				}
				now += uint64(p % 3)
			}
			st := m.Stats()
			return st.FlitHops == ref.flitHops && st.Packets == uint64(len(sends))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%dx%d mesh: %v", shape[0], shape[1], err)
		}
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

func TestSendAllocatesNothing(t *testing.T) {
	m := New(DefaultConfig())
	if n := mallocs(func() {
		for i := 0; i < 100000; i++ {
			src, dst := i%4, (i/4)%4
			m.SendCtrl(src, dst, uint64(i))
			m.SendData(dst, src, uint64(i))
		}
	}); n != 0 {
		t.Fatalf("every run of 200000 sends made at least %d heap allocations, want 0", n)
	}
}
