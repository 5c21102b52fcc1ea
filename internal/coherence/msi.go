// Package coherence implements the MSI directory protocol used by the
// full-system simulator (Table II: MSI over a distributed shared L2). The
// directory lives at each block's L2 home node and tracks which private L1s
// hold the block and in what state; the timing simulator asks it what
// messages a load or store implies and charges the corresponding NoC and
// cache events.
package coherence

import (
	"fmt"
	"math/bits"
)

// State is an MSI block state as tracked by the directory.
type State uint8

const (
	// Invalid: no L1 holds the block.
	Invalid State = iota
	// Shared: one or more L1s hold a read-only copy.
	Shared
	// Modified: exactly one L1 holds a dirty, exclusive copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// line is one block's directory entry.
type line struct {
	sharers uint64 // bitmask of nodes with a copy
	owner   int32  // valid when state == Modified
	state   State
}

// slot is one open-addressing table entry.
type slot struct {
	block uint64
	line
	used bool
}

// Action tells the timing simulator what a request implies beyond the
// home-node lookup.
type Action struct {
	// FlushFrom >= 0 means the block must be fetched from that node's L1
	// (it holds the only up-to-date copy in Modified state).
	FlushFrom int
	// Invalidate is the bitmask of nodes (bit n = node n) whose L1 copies
	// must be invalidated.
	Invalidate uint64
}

// minSlots is the initial table size; the table doubles past 3/4 load.
const minSlots = 256

// Directory tracks MSI state for all blocks. Not safe for concurrent use.
//
// Lines live by value in a linear-probing hash table keyed by block
// address, so a request costs one probe sequence and, once the table has
// grown to the working set, no allocation.
type Directory struct {
	nodes int
	slots []slot
	live  int
	shift uint // 64 - log2(len(slots))

	// Invalidations counts invalidation messages implied by stores.
	Invalidations uint64
	// Flushes counts owner-flush round trips implied by remote dirty copies.
	Flushes uint64
}

// NewDirectory builds a directory for n nodes. It panics if n is outside
// [1,64] (the sharer bitmask is a uint64): node counts are fixed experiment
// parameters, so an illegal one is a programming error, not a runtime
// condition.
func NewDirectory(n int) *Directory {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("coherence: node count %d out of range [1,64]", n))
	}
	d := &Directory{nodes: n}
	d.resize(minSlots)
	return d
}

// resize rebuilds the table with size slots (a power of two).
func (d *Directory) resize(size int) {
	old := d.slots
	d.slots = make([]slot, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].used {
			j, _ := d.find(old[i].block)
			d.slots[j] = old[i]
		}
	}
}

// home returns block's preferred slot. Fibonacci hashing: block addresses
// share their low (offset) bits, so the multiply's high bits pick the slot.
func (d *Directory) home(block uint64) int {
	return int((block * 0x9E3779B97F4A7C15) >> d.shift)
}

// find returns the slot holding block, or the empty slot where it would be
// inserted.
func (d *Directory) find(block uint64) (int, bool) {
	mask := len(d.slots) - 1
	i := d.home(block)
	for {
		s := &d.slots[i]
		if !s.used {
			return i, false
		}
		if s.block == block {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// get returns block's line, inserting an Invalid one if absent. The
// pointer is valid until the next insertion or removal.
func (d *Directory) get(block uint64) *line {
	i, ok := d.find(block)
	if !ok {
		if (d.live+1)*4 > len(d.slots)*3 {
			d.resize(2 * len(d.slots))
			i, _ = d.find(block)
		}
		d.slots[i] = slot{block: block, line: line{owner: -1}, used: true}
		d.live++
	}
	return &d.slots[i].line
}

// remove deletes slot i by backward-shift deletion, which keeps every
// remaining entry reachable from its home slot without tombstones.
func (d *Directory) remove(i int) {
	mask := len(d.slots) - 1
	d.live--
	for j := (i + 1) & mask; d.slots[j].used; j = (j + 1) & mask {
		home := d.home(d.slots[j].block)
		// Entry j may move into the hole at i unless its home lies
		// cyclically in (i, j].
		if (j > i && (home <= i || home > j)) || (j < i && home <= i && home > j) {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = slot{}
}

// StateOf returns the directory state of a block.
func (d *Directory) StateOf(block uint64) State {
	if i, ok := d.find(block); ok {
		return d.slots[i].state
	}
	return Invalid
}

// Sharers returns the nodes currently holding the block.
func (d *Directory) Sharers(block uint64) []int {
	i, ok := d.find(block)
	if !ok {
		return nil
	}
	var out []int
	for m := d.slots[i].sharers; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}

// Load records node reading block and returns the implied action. The
// requester ends with (at least) a Shared copy; a remote Modified owner is
// downgraded to Shared after flushing.
func (d *Directory) Load(block uint64, node int) Action {
	l := d.get(block)
	act := Action{FlushFrom: -1}
	switch l.state {
	case Invalid:
		l.state = Shared
	case Shared:
		// nothing extra
	case Modified:
		if int(l.owner) != node {
			act.FlushFrom = int(l.owner)
			d.Flushes++
		}
		// Otherwise the requester already owns it (shouldn't be a miss,
		// but a conflict eviction may have dropped the L1 copy silently).
		l.state = Shared
		l.owner = -1
	}
	l.sharers |= 1 << uint(node)
	return act
}

// Store records node writing block and returns the implied action: all
// other sharers are invalidated and a remote dirty owner flushes first.
func (d *Directory) Store(block uint64, node int) Action {
	return d.store(d.get(block), node)
}

// Upgrade records node gaining write permission for a block its L1 already
// holds. If the directory has the block Modified it changes nothing and
// reports false; otherwise it performs Store and returns its action. It is
// StateOf followed by Store with a single lookup.
func (d *Directory) Upgrade(block uint64, node int) (Action, bool) {
	i, ok := d.find(block)
	if ok && d.slots[i].state == Modified {
		return Action{FlushFrom: -1}, false
	}
	return d.store(d.get(block), node), true
}

func (d *Directory) store(l *line, node int) Action {
	act := Action{FlushFrom: -1}
	if l.state == Modified && int(l.owner) != node && l.owner >= 0 {
		act.FlushFrom = int(l.owner)
		d.Flushes++
	}
	self := uint64(1) << uint(node)
	act.Invalidate = l.sharers &^ self
	d.Invalidations += uint64(bits.OnesCount64(act.Invalidate))
	l.state = Modified
	l.owner = int32(node)
	l.sharers = self
	return act
}

// Evict records that node dropped its copy (L1 replacement). A Modified
// owner eviction implies a writeback, which the caller charges separately.
func (d *Directory) Evict(block uint64, node int) {
	i, ok := d.find(block)
	if !ok {
		return
	}
	l := &d.slots[i].line
	l.sharers &^= 1 << uint(node)
	if l.state == Modified && int(l.owner) == node {
		l.state = Invalid
		l.owner = -1
	}
	if l.sharers == 0 {
		d.remove(i)
	}
}
