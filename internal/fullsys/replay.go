package fullsys

import (
	"fmt"
	"io"
	"math"

	"lva/internal/obs/prov"
	"lva/internal/trace"
)

// blockAccesses is the capacity of one shared-queue block.
const blockAccesses = 4096

// qblock is one fixed-size segment of a core's shared access queue.
type qblock struct {
	accs   [blockAccesses]trace.Access
	n      int     // filled entries
	passed int     // sims whose cursor has left this block
	next   *qblock // successor; set the moment this block fills
}

// queue holds the decoded, not-yet-simulated accesses of a K-sim replay:
// one chain of blocks per core, shared by every sim. Each sim walks the
// chains with its own per-core cursor (coreState.blk/pos); a block returns
// to the free list once all K cursors have left it, so memory is bounded
// by the accesses between the slowest cursor and the decode frontier, with
// no doubling slack and no compaction copies.
type queue struct {
	sims  int
	tails []*qblock // per-core block receiving decoded accesses
	free  *qblock   // released blocks, linked through next

	chunks   uint64 // decoded chunks pushed
	accesses uint64 // decoded accesses pushed
	released int    // blocks released to the free list
	allocs   int    // blocks ever allocated
	peakLive uint64 // most accesses held at once (pushed, not yet released)
}

func newQueue(cores, sims int) *queue {
	q := &queue{sims: sims, tails: make([]*qblock, cores)}
	for i := range q.tails {
		q.tails[i] = q.block()
	}
	return q
}

// block returns an empty block, reusing a released one when possible.
func (q *queue) block() *qblock {
	b := q.free
	if b == nil {
		q.allocs++
		return &qblock{}
	}
	q.free = b.next
	b.n, b.passed, b.next = 0, 0, nil
	return b
}

// push appends a decoded chunk to the per-core chains; thread t maps to
// core t mod Cores. A block that fills gets its successor immediately, so
// a cursor leaving a full block always has somewhere to go.
func (q *queue) push(accs []trace.Access) {
	q.chunks++
	q.accesses += uint64(len(accs))
	cores := len(q.tails)
	for i := range accs {
		c := int(accs[i].Thread) % cores
		t := q.tails[c]
		t.accs[t.n] = accs[i]
		t.n++
		if t.n == blockAccesses {
			t.next = q.block()
			q.tails[c] = t.next
		}
	}
	if live := q.accesses - uint64(q.released)*blockAccesses; live > q.peakLive {
		q.peakLive = live
	}
}

// leave records that one sim's cursor moved past b and releases b once
// every sim has. Cursors advance in chain order, so the released block is
// always the oldest one still held.
func (q *queue) leave(b *qblock) {
	b.passed++
	if b.passed == q.sims {
		b.next = q.free
		q.free = b
		q.released++
	}
}

// Replay feeds a recorded grid stream through one or more phase-2
// simulators, decoding it once: each decoded chunk is appended to a shared
// per-core queue, then every sim advances in lockstep as far as the queue
// lets it. threads is the stream's thread count (GridHeader.Threads);
// thread t maps to core t mod Cores, and only cores with at least one
// mapped thread are active.
//
// The lockstep rule is RunStream's refill rule: a sim picks its next
// access — always from the core whose next access issues earliest — only
// while none of its active cores is dry, and runs to completion once the
// stream is exhausted. Before every pick each active core therefore has
// its true next access queued, so each sim's pick order, and with it
// every counter, equals a run over the fully materialized trace. The sims
// must be fresh, distinct and agree on Cores; on a decode error Replay
// returns the error and no results. Each sim is accounted one streaming
// pass on the active provenance ledger, since each consumes the whole
// stream.
func Replay(src trace.ChunkSource, threads int, sims []*Sim) ([]Result, error) {
	res, q, err := replay(src, threads, sims)
	if err != nil {
		return nil, err
	}
	if l := prov.Active(); l != nil {
		for range sims {
			l.AddStream(q.chunks, q.accesses)
		}
	}
	return res, nil
}

// replay is Replay without provenance accounting; it also returns the
// queue it ran on, whose counters carry the decoded volume.
func replay(src trace.ChunkSource, threads int, sims []*Sim) ([]Result, *queue, error) {
	if len(sims) == 0 {
		return nil, nil, nil
	}
	n := sims[0].cfg.Cores
	for _, s := range sims[1:] {
		if s.cfg.Cores != n {
			return nil, nil, fmt.Errorf("fullsys: replayed sims disagree on core count (%d vs %d)", s.cfg.Cores, n)
		}
	}
	q := newQueue(n, len(sims))
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
			return nil, nil, err
		}
		q.push(accs)
		for i, s := range sims {
			s.advance(q, cores[i])
		}
	}
	res := make([]Result, len(sims))
	for i, s := range sims {
		for _, c := range cores[i] {
			c.active = false
		}
		s.advance(q, cores[i])
		res[i] = s.finish(cores[i])
	}
	return res, q, nil
}

// advance steps s, one access at a time, always on the core whose next
// access will issue earliest (its current time plus the compute gap before
// the access), the lower core id first on equal keys. Shared-resource
// reservations (links, L2 banks, DRAM) then occur in near-global time
// order, which the monotonic busy-until contention model requires;
// residual leapfrogging from ROB/MSHR stalls is bounded by one miss
// latency. It returns when an active core has no queued access (the pick
// would need one not yet decoded) or when every core is done.
//
// One scan finds the earliest core and the runner-up; the earliest core
// then runs ahead while it stays ahead of the runner-up, and a rescan
// follows when it falls behind or its queue runs dry. This picks exactly
// what a scan before every step would: a step changes only its own core's
// clock and cursor (coherence invalidates other cores' L1 lines but never
// moves their clocks), and accesses are pushed only between advance calls,
// so the other cores' keys, and which of them are dry, stay as scanned.
func (s *Sim) advance(q *queue, cores []*coreState) {
	for {
		var next *coreState
		var nextKey uint64
		// With no runner-up the earliest core runs until its queue is dry.
		runnerKey, runnerID := uint64(math.MaxUint64), len(cores)
		for _, c := range cores {
			if c.pos == c.blk.n {
				if c.active {
					return
				}
				continue
			}
			key := c.cycleQ + uint64(c.blk.accs[c.pos].Gap)
			switch {
			case next == nil || key < nextKey:
				if next != nil {
					runnerKey, runnerID = nextKey, next.id
				}
				next, nextKey = c, key
			case key < runnerKey:
				runnerKey, runnerID = key, c.id
			}
		}
		if next == nil {
			return
		}
		for {
			s.step(next, &next.blk.accs[next.pos])
			next.pos++
			if next.pos == blockAccesses {
				b := next.blk
				next.blk, next.pos = b.next, 0
				q.leave(b)
			}
			if next.pos == next.blk.n {
				break
			}
			key := next.cycleQ + uint64(next.blk.accs[next.pos].Gap)
			if key > runnerKey || key == runnerKey && next.id > runnerID {
				break
			}
		}
	}
}

// sliceSource serves an in-memory trace as a ChunkSource in block-sized
// windows. The phase-2 model never reads instruction indices, so it
// returns none.
type sliceSource struct{ accs []trace.Access }

func (s *sliceSource) Next() ([]trace.Access, []uint64, error) {
	if len(s.accs) == 0 {
		return nil, nil, io.EOF
	}
	n := min(len(s.accs), blockAccesses)
	w := s.accs[:n]
	s.accs = s.accs[n:]
	return w, nil, nil
}

// traceThreads is the thread count of an in-memory trace: one past its
// highest thread id.
func traceThreads(tr *trace.Trace) int {
	threads := 0
	for i := range tr.Accesses {
		if t := int(tr.Accesses[i].Thread) + 1; t > threads {
			threads = t
		}
	}
	return threads
}

// ReplayTrace runs every sim over an in-memory trace with Replay's single
// pass and pick loop. Unlike Replay it accounts no streaming volume: the
// accesses come from memory, not from a decoded recording. The sims must
// be fresh, distinct and agree on Cores.
func ReplayTrace(tr *trace.Trace, sims []*Sim) ([]Result, error) {
	res, _, err := replay(&sliceSource{accs: tr.Accesses}, traceThreads(tr), sims)
	return res, err
}
