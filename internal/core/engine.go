// Package core implements the paper's primary contribution: the V-COMA home
// node (§4). In V-COMA no processor has a TLB; the whole hierarchy is
// virtually indexed and tagged, and dynamic address translation happens at
// the home node as part of the cache coherence protocol. Each node's
// protocol engine (the paper's PE, akin to FLASH's MAGIC chip) translates
// virtual addresses of incoming requests into directory addresses through a
// DLB — the Directory Lookaside Buffer — backed by the home's page table,
// which allocates directory pages on demand.
//
// The three effects that make the DLB so effective (paper §5.2) fall out of
// this structure:
//
//   - filtering: the DLB only sees requests that missed every level of some
//     node's hierarchy, including its attraction memory;
//   - sharing: a DLB entry at the home serves all 32 nodes, so the
//     effective machine-wide DLB capacity is P times the per-node size;
//   - prefetching: one node's DLB fill covers every other node's later
//     access to the same page.
package core

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/obs"
	"vcoma/internal/tlb"
	"vcoma/internal/vm"
)

// EngineStats counts one home engine's translation activity.
type EngineStats struct {
	// Lookups is the number of directory-address translations performed.
	Lookups uint64
	// CriticalLookups counts translations on some processor's critical
	// path (a stalled request), as opposed to replacement traffic.
	CriticalLookups uint64
	// Misses counts DLB misses (page-table walks by the PE).
	Misses uint64
	// CriticalMisses counts misses on the critical path.
	CriticalMisses uint64
	// PenaltyCycles is the total DLB miss service time incurred.
	PenaltyCycles uint64
	// DirPagesTouched is how many distinct directory pages were resolved.
	DirPagesTouched uint64
}

// HomeEngine is one node's V-COMA protocol engine: DLB plus page-table
// walker. The directory memory itself lives in package coherence; the
// engine's job is the virtual-address-to-directory-address step in front of
// it (paper Figure 7).
type HomeEngine struct {
	node   addr.Node
	g      addr.Geometry
	sys    *vm.System
	dlb    tlb.Buffer
	timing config.Timing
	stats  EngineStats
	tracer *obs.Tracer

	// seenDirPages backs the DirPagesTouched counter: a bitset over this
	// home's directory pages, which are numbered densely from zero.
	seenDirPages []uint64
}

// NewHomeEngine builds the engine for node n. The DLB has entries slots in
// the given organization; direct-mapped DLBs index with the page-number bits
// above the home bits, since all pages homed here share their low bits.
func NewHomeEngine(n addr.Node, cfg config.Config, sys *vm.System, entries int, org config.TLBOrg) (*HomeEngine, error) {
	if sys.Mode() != vm.VirtualOnly {
		return nil, fmt.Errorf("core: V-COMA home engine requires a virtual-only VM system, got %v", sys.Mode())
	}
	dlb, err := tlb.New(entries, org, cfg.Geometry.NodeBits, cfg.Seed^uint64(n)<<32^0xD1B)
	if err != nil {
		return nil, err
	}
	return &HomeEngine{
		node:   n,
		g:      cfg.Geometry,
		sys:    sys,
		dlb:    dlb,
		timing: cfg.Timing,
	}, nil
}

// Node returns the engine's node id.
func (e *HomeEngine) Node() addr.Node { return e.node }

// DLB exposes the engine's translation buffer (tests, reports).
func (e *HomeEngine) DLB() tlb.Buffer { return e.dlb }

// Stats returns the engine's counters.
func (e *HomeEngine) Stats() EngineStats { return e.stats }

// SetTracer attaches an event tracer; DLB fills and evictions become
// instant events on this node's "dlb" track. A nil tracer (the default)
// keeps Translate event-free.
func (e *HomeEngine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// RegisterMetrics registers the engine's counters under prefix (e.g.
// "node03/dlb") with an observability registry.
func (e *HomeEngine) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.Probe(prefix+".lookups", func() float64 { return float64(e.stats.Lookups) })
	r.Probe(prefix+".misses", func() float64 { return float64(e.stats.Misses) })
	r.Probe(prefix+".penaltyCycles", func() float64 { return float64(e.stats.PenaltyCycles) })
	r.Probe(prefix+".dirPagesTouched", func() float64 { return float64(e.stats.DirPagesTouched) })
}

// Translate resolves the directory address for virtual block address v,
// charging a DLB access and returning the extra service cycles (the DLB
// miss penalty, or zero on a hit). critical marks translations on a stalled
// processor's path. The page's reference bit is set as a side effect, since
// the DLB sees the post-attraction-memory access stream (§4.3).
func (e *HomeEngine) Translate(v addr.Virtual, critical bool) (addr.DirAddr, uint64) {
	return e.TranslateAt(0, v, critical)
}

// TranslateAt is Translate with the current simulated time, used to
// timestamp DLB trace events. Callers without a clock use Translate.
func (e *HomeEngine) TranslateAt(now uint64, v addr.Virtual, critical bool) (addr.DirAddr, uint64) {
	// One page-table walk serves the home check, the directory address and
	// the Reference bit (the walk, not three separate Ensure lookups).
	pg := e.sys.Ensure(v)
	if pg.Home != e.node {
		panic(fmt.Sprintf("core: node %d asked to translate %#x homed at node %d", e.node, uint64(v), pg.Home))
	}
	da := e.g.DirAddrOf(pg.DirPage, v)
	pg.Referenced = true

	e.stats.Lookups++
	if critical {
		e.stats.CriticalLookups++
	}
	w, bit := pg.DirPage>>6, uint64(1)<<(pg.DirPage&63)
	if w >= len(e.seenDirPages) {
		e.seenDirPages = append(e.seenDirPages, make([]uint64, w+1-len(e.seenDirPages))...)
	}
	if e.seenDirPages[w]&bit == 0 {
		e.seenDirPages[w] |= bit
		e.stats.DirPagesTouched++
	}

	if e.dlb.Access(e.g.Page(v)) {
		return da, 0
	}
	e.stats.Misses++
	if critical {
		e.stats.CriticalMisses++
	}
	e.stats.PenaltyCycles += e.timing.DLBMiss
	if e.tracer.Enabled("dlb") {
		e.tracer.Instant("dlb", "dlb-fill", int(e.node), 0, now)
		// Once the miss count exceeds capacity the buffer must be
		// recycling entries, so each further fill implies an eviction.
		if e.stats.Misses > uint64(e.dlb.Entries()) {
			e.tracer.Instant("dlb", "dlb-evict", int(e.node), 0, now)
		}
	}
	return da, e.timing.DLBMiss
}

// SetModified records a write-ownership transfer for v's page: the home
// engine sets the Modify bit in the DLB's page-table entry (§4.3).
func (e *HomeEngine) SetModified(v addr.Virtual) { e.sys.SetModified(v) }

// DLBStats returns the underlying buffer's counters.
func (e *HomeEngine) DLBStats() tlb.Stats { return e.dlb.Stats() }
