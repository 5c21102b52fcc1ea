// Package noc models the paper's network-on-chip: a 2x2 mesh with 3-cycle
// routers (Table II), XY dimension-order routing, and per-link serialization
// so contention lengthens transfers under load (the paper models the NoC
// with BookSim; this is a lighter-weight link-reservation model that
// captures hop latency, serialization and queueing).
package noc

import "fmt"

// Config describes the mesh.
type Config struct {
	// Width, Height are the mesh dimensions (paper: 2x2).
	Width, Height int
	// RouterCycles is the per-hop router pipeline latency (paper: 3).
	RouterCycles uint64
	// LinkCycles is the per-hop link traversal latency.
	LinkCycles uint64
	// CtrlFlits and DataFlits are packet sizes in flits: control packets
	// carry a request/ack; data packets carry a 64 B cache block.
	CtrlFlits, DataFlits int
}

// DefaultConfig returns the paper's NoC parameters.
func DefaultConfig() Config {
	return Config{Width: 2, Height: 2, RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: mesh dimensions must be positive, got %dx%d", c.Width, c.Height)
	case c.CtrlFlits <= 0 || c.DataFlits <= 0:
		return fmt.Errorf("noc: packet sizes must be positive, got ctrl=%d data=%d", c.CtrlFlits, c.DataFlits)
	}
	return nil
}

// Nodes returns the node count.
func (c Config) Nodes() int { return c.Width * c.Height }

// Stats counts NoC activity.
type Stats struct {
	Packets  uint64
	FlitHops uint64 // flits x hops: the traffic/energy measure
}

// Mesh is the interconnect model. Not safe for concurrent use.
type Mesh struct {
	cfg   Config
	nodes int
	// Every directed channel between adjacent routers has a dense id:
	// node*4 + direction (linkEast, linkWest, linkSouth, linkNorth).
	// linkFree holds each channel's busy-until time.
	linkFree []uint64
	// The XY route from src to dst, as link ids, is
	// routeLinks[routeAt[r]:routeAt[r+1]] with r = src*nodes + dst;
	// precomputed at New so Send neither routes nor allocates.
	routeLinks []int32
	routeAt    []int32
	stats      Stats
}

// Directions of a channel leaving a router, the low two bits of a link id.
const (
	linkEast = iota
	linkWest
	linkSouth
	linkNorth
	linksPerNode
)

// New builds a mesh; it panics on an invalid Config. It precomputes every
// node pair's route, so its cost grows with the square of the node count
// times the mesh diameter.
func New(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Nodes()
	m := &Mesh{
		cfg:      cfg,
		nodes:    n,
		linkFree: make([]uint64, n*linksPerNode),
		routeAt:  make([]int32, 0, n*n+1),
	}
	m.routeAt = append(m.routeAt, 0)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			path := m.Route(src, dst)
			for i := 0; i+1 < len(path); i++ {
				m.routeLinks = append(m.routeLinks, int32(m.linkID(path[i], path[i+1])))
			}
			m.routeAt = append(m.routeAt, int32(len(m.routeLinks)))
		}
	}
	return m
}

// linkID returns the dense id of the channel from node a to adjacent b.
func (m *Mesh) linkID(a, b int) int {
	ax, ay := m.coord(a)
	bx, by := m.coord(b)
	dir := linkNorth
	switch {
	case bx > ax:
		dir = linkEast
	case bx < ax:
		dir = linkWest
	case by > ay:
		dir = linkSouth
	}
	return a*linksPerNode + dir
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *Mesh) Stats() Stats { return m.stats }

func (m *Mesh) coord(n int) (x, y int) { return n % m.cfg.Width, n / m.cfg.Width }
func (m *Mesh) node(x, y int) int      { return y*m.cfg.Width + x }

// Route returns the XY-routed node sequence from src to dst (inclusive).
func (m *Mesh) Route(src, dst int) []int {
	path := []int{src}
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		path = append(path, m.node(x, y))
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		path = append(path, m.node(x, y))
	}
	return path
}

// routeOf returns the precomputed link ids of the src->dst route.
func (m *Mesh) routeOf(src, dst int) []int32 {
	r := src*m.nodes + dst
	return m.routeLinks[m.routeAt[r]:m.routeAt[r+1]]
}

// Hops returns the XY hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int { return len(m.routeOf(src, dst)) }

// Send injects a packet of `flits` flits at time `now` and returns its
// arrival time at dst. Each directed link serializes: a packet holds the
// link for `flits` cycles, so concurrent traffic queues up. src == dst
// arrives immediately (bank co-located with the core tile).
func (m *Mesh) Send(src, dst int, flits int, now uint64) uint64 {
	m.stats.Packets++
	if src == dst {
		return now
	}
	route := m.routeOf(src, dst)
	t := now
	for _, l := range route {
		depart := max(t, m.linkFree[l])
		m.linkFree[l] = depart + uint64(flits)
		t = depart + m.cfg.RouterCycles + m.cfg.LinkCycles
	}
	m.stats.FlitHops += uint64(flits) * uint64(len(route))
	// Tail flits serialize onto the final hop.
	return t + uint64(flits) - 1
}

// SendCtrl sends a control packet (request/ack).
func (m *Mesh) SendCtrl(src, dst int, now uint64) uint64 {
	return m.Send(src, dst, m.cfg.CtrlFlits, now)
}

// SendData sends a data packet (one cache block).
func (m *Mesh) SendData(src, dst int, now uint64) uint64 {
	return m.Send(src, dst, m.cfg.DataFlits, now)
}

// Reset clears link reservations and statistics.
func (m *Mesh) Reset() {
	clear(m.linkFree)
	m.stats = Stats{}
}
