package main

import (
	"fmt"
	"io"
	"os"

	"lva/internal/experiments"
)

// layerRow is one line of the per-layer table: a layer's events in one
// pass times its per-event cost.
type layerRow struct {
	name   string
	events float64
	nsPer  float64
	// inSum is false for sub-layers whose time their parent row already
	// includes (noc, coherence and dram inside fullsys).
	inSum bool
}

func (r layerRow) ms() float64 { return r.events * r.nsPer / 1e6 }

type layerTable struct {
	rows    []layerRow
	refS    float64 // measured pass wall time
	sumS    float64 // sum of the in-sum rows
	metrics map[string]metric
}

// weigh sums count × cost over kernels. With no events the cost is the
// mean over the profiles that measured it, so a bypassed layer still
// reports what an event would cost.
func weigh(counts perKernel, profiles map[string]*profile, measured func(*profile) bool, cost func(*profile) float64) (events, nsPer float64) {
	var total float64
	for _, k := range sortedKeys(counts) {
		n := counts[k]
		if p := profiles[k]; p != nil && n > 0 && measured(p) {
			events += n
			total += n * cost(p)
		}
	}
	if events > 0 {
		return events, total / events
	}
	var sum, num float64
	for _, k := range sortedKeys(profiles) {
		if p := profiles[k]; measured(p) {
			sum += cost(p)
			num++
		}
	}
	return 0, per(sum, num)
}

func hasPhase1(p *profile) bool   { return p.run > 0 }
func hasPrefetch(p *profile) bool { return p.pfCalls > 0 }
func hasPhase2(p *profile) bool   { return p.fs > 0 }
func always(*profile) bool        { return true }

func buildTable(u *usage, profiles map[string]*profile, refS float64) *layerTable {
	t := &layerTable{refS: refS, metrics: make(map[string]metric)}
	add := func(name string, counts perKernel, measured func(*profile) bool, cost func(*profile) float64, inSum bool) layerRow {
		ev, c := weigh(counts, profiles, measured, cost)
		r := layerRow{name, ev, c, inSum}
		t.rows = append(t.rows, r)
		return r
	}
	kern := add("workloads (kernel arithmetic)", u.kernelAcc, hasPhase1, (*profile).kernelNS, true)
	sim := add("memsim (L1 path, per access)", u.simAcc, always, (*profile).memsimNS, true)
	cor := add("core (approximator, per miss)", u.coreMiss, hasPhase1, (*profile).coreNS, true)
	var pf [2]layerRow
	for i, d := range prefetchDegrees {
		i := i
		pf[i] = add(fmt.Sprintf("prefetch degree %d (per miss)", d), u.pfMiss[i], hasPrefetch,
			func(p *profile) float64 { return p.pfNS(i) }, true)
	}
	dec := add("trace decode (per access)", u.decoded, always, (*profile).decodeNS, true)
	enc := add("trace encode (per access)", perKernel{}, hasPhase1, (*profile).encodeNS, true)
	fs := add("fullsys (per access, incl. below)", u.fsAcc, hasPhase2, (*profile).fullsysNS, true)
	nc := add("  noc (per packet)", u.packets, hasPhase2, (*profile).nocNS, false)
	dir := add("  coherence (per directory op)", u.dirOps, hasPhase2, (*profile).dirNS, false)
	dr := add("  dram (per access)", u.dramAcc, hasPhase2, (*profile).dramNS, false)
	for _, r := range t.rows {
		if r.inSum {
			t.sumS += r.ms() / 1e3
		}
	}

	m := t.metrics
	m["workloads.kernel_ns_per_access"] = metric{kern.nsPer, "ns"}
	m["memsim.accesses"] = metric{sim.events, "count"}
	m["memsim.ns_per_access"] = metric{sim.nsPer, "ns"}
	m["cache.miss_frac"] = metric{per(u.l1Misses, u.l1Loads), "frac"}
	m["core.misses"] = metric{cor.events, "count"}
	m["core.ns_per_miss"] = metric{cor.nsPer, "ns"}
	m["prefetch.misses"] = metric{pf[0].events + pf[1].events, "count"}
	for i, d := range prefetchDegrees {
		i := i
		m[fmt.Sprintf("prefetch.ns_per_miss_d%d", d)] = metric{pf[i].nsPer, "ns"}
		_, allocs := weigh(u.pfMiss[i], profiles, hasPrefetch, func(p *profile) float64 { return p.pfAllocsPer(i) })
		m[fmt.Sprintf("prefetch.allocs_per_miss_d%d", d)] = metric{allocs, "allocs"}
	}
	m["trace.decoded_accesses"] = metric{dec.events, "count"}
	m["trace.decode_ns_per_access"] = metric{dec.nsPer, "ns"}
	m["trace.encode_ns_per_access"] = metric{enc.nsPer, "ns"}
	var bytes, accs float64
	for _, k := range sortedKeys(profiles) {
		bytes += profiles[k].bytes
		accs += profiles[k].acc
	}
	m["trace.bytes_per_access"] = metric{per(bytes, accs), "B"}
	m["fullsys.accesses"] = metric{fs.events, "count"}
	m["fullsys.ns_per_access"] = metric{fs.nsPer, "ns"}
	_, fsAllocs := weigh(u.fsAcc, profiles, hasPhase2, func(p *profile) float64 { return per(p.fsAllocs, p.acc) })
	m["fullsys.allocs_per_access"] = metric{fsAllocs, "allocs"}
	m["noc.packets"] = metric{nc.events, "count"}
	m["noc.ns_per_packet"] = metric{nc.nsPer, "ns"}
	m["coherence.ops"] = metric{dir.events, "count"}
	m["coherence.ns_per_op"] = metric{dir.nsPer, "ns"}
	m["dram.accesses"] = metric{dr.events, "count"}
	m["dram.ns_per_access"] = metric{dr.nsPer, "ns"}
	m["experiments.residual_frac"] = metric{t.residualFrac(), "frac"}
	return t
}

// residualFrac is the share of the measured pass time the in-sum layer
// rows do not explain (negative when they over-explain it).
func (t *layerTable) residualFrac() float64 { return per(t.refS-t.sumS, t.refS) }

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "%-36s %14s %12s %12s %8s\n", "layer", "events/pass", "ns/event", "ms/pass", "share")
	for _, r := range t.rows {
		share := ""
		if r.inSum && t.refS > 0 {
			share = fmt.Sprintf("%7.1f%%", 100*r.ms()/1e3/t.refS)
		}
		fmt.Fprintf(w, "%-36s %14.0f %12.2f %12.1f %8s\n", r.name, r.events, r.nsPer, r.ms(), share)
	}
	fmt.Fprintf(w, "%-36s %14s %12s %12.1f %7.1f%%\n", "sum of layer rows", "", "", t.sumS*1e3, 100*per(t.sumS, t.refS))
	fmt.Fprintf(w, "%-36s %14s %12s %12.1f %7.1f%%\n", "residual (experiments engine, rest)", "", "", (t.refS-t.sumS)*1e3, 100*t.residualFrac())
	fmt.Fprintf(w, "%-36s %14s %12s %12.1f\n", "measured pass (reference median)", "", "", t.refS*1e3)
}

// warnBypassed flags, without failing the run, every layer that did work
// on a workload whose design predicts it does none. A silent route change
// (replay falling back to execution, say) then shows here instead of
// passing as a speed change.
func warnBypassed(w *workload, u *usage, cp *counted, rc experiments.RunCacheStats, tc experiments.TraceStats) {
	type check struct {
		layer string
		work  float64
	}
	checks := []check{
		{"experiments.recordings during a pass (store not warm)", float64(tc.Recordings)},
	}
	decode := float64(cp.costs.DecodedAccesses)
	stream := float64(cp.costs.StreamedAccesses)
	switch w {
	case sweepExec:
		checks = append(checks,
			check{"prefetch.misses", u.pfMiss[0].total() + u.pfMiss[1].total()},
			check{"trace.decoded_accesses (phase-1 replay)", decode},
			check{"fullsys.accesses", stream},
			check{"experiments.header_hits", float64(tc.HeaderHits)},
			check{"experiments.replay_points", float64(tc.ReplayPoints)})
	case counterFigs:
		checks = append(checks, check{"fullsys.accesses (noc, coherence, dram)", stream})
	case fullsysWL:
		checks = append(checks,
			check{"workloads.kernel_runs", float64(rc.Simulated)},
			check{"memsim replay (phase-1 decode)", decode},
			check{"experiments.exec_points", float64(tc.ExecPoints)},
			check{"experiments.replay_points", float64(tc.ReplayPoints)})
	}
	clean := true
	for _, c := range checks {
		if c.work != 0 {
			clean = false
			msg := fmt.Sprintf("bypass warning: %s did %.0f units of work on %s, predicted zero", c.layer, c.work, w.name)
			fmt.Println(msg)
			fmt.Fprintln(os.Stderr, "perfbench:", msg)
		}
	}
	if clean {
		fmt.Printf("bypass check: every layer predicted idle on %s did no work\n", w.name)
	}
}
