package main

import (
	"time"

	"vcoma/internal/addr"
	"vcoma/internal/cache"
	"vcoma/internal/coherence"
	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/mem"
	"vcoma/internal/network"
	"vcoma/internal/obs"
	"vcoma/internal/tlb"
	"vcoma/internal/trace"
	"vcoma/internal/vm"
)

// sampleEvery is the step-timing sampling period: one event in sampleEvery
// is timed, which keeps the clock reads to a few percent of engine time.
const sampleEvery = 16

// maxReplayRefs caps how many references of one cell are captured for the
// layer replays, bounding the traced run's memory.
const maxReplayRefs = 1 << 20

// ref is one processor reference as the machine completed it.
type ref struct {
	va    addr.Virtual
	node  addr.Node
	write bool
}

// timing accumulates sampled nanoseconds and their sample count.
type timing struct {
	ns float64
	n  float64
}

func (t *timing) add(d time.Duration) { t.ns += float64(d); t.n++ }

func (t timing) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.ns / t.n
}

// stepTimer is installed on the engine's step observer and the machine's
// access-checker seam. Every sampleEvery-th step boundary starts a clock;
// the next boundary stops it and charges the interval to the event kind
// (compute or synchronization) or, for a reference, to the class the machine
// served it from. It also counts every reference by class and captures the
// first maxReplayRefs references for the replays.
type stepTimer struct {
	steps  uint64
	armed  bool
	t0     time.Time
	access [4]timing // by machine.Class
	refs   [4]uint64
	comp   timing
	sync   timing
	trace  []ref
}

// reset starts a new cell: no clock running, no captured references.
func (s *stepTimer) reset() {
	s.armed = false
	s.trace = s.trace[:0]
}

// PostAccess implements machine.AccessChecker.
func (s *stepTimer) PostAccess(n addr.Node, va addr.Virtual, write bool, r machine.AccessResult) {
	if s.armed {
		s.access[r.Class].add(time.Since(s.t0))
		s.armed = false
	}
	s.refs[r.Class]++
	if len(s.trace) < maxReplayRefs {
		s.trace = append(s.trace, ref{va: va, node: n, write: write})
	}
}

// step is the engine's step observer.
func (s *stepTimer) step(proc int, ev trace.Event) {
	if s.armed {
		switch ev.Kind {
		case trace.Compute:
			s.comp.add(time.Since(s.t0))
		case trace.LockAcquire, trace.LockRelease, trace.Barrier:
			s.sync.add(time.Since(s.t0))
		}
		s.armed = false
	}
	s.steps++
	if s.steps%sampleEvery == 0 {
		s.armed = true
		s.t0 = time.Now()
	}
}

// replayNS accumulates each replayed layer's total time and operations.
type replayNS map[string]*timing

// replay pushes a cell's captured reference stream through fresh instances
// of the simulator's layers, one layer at a time, each under its own span.
// Protocol blocks, home nodes and pages come from the finished machine m,
// computed before any layer is timed.
func replay(parent *obs.Span, m *machine.Machine, cfg config.Config, refs []ref, acc replayNS) {
	g := m.Geometry()
	prep := parent.StartChild("replay.prepare")
	pages := make([]addr.PageNum, len(refs))
	blocks := make([]uint64, len(refs))
	homes := make([]addr.Node, len(refs))
	for i, x := range refs {
		pages[i] = g.Page(x.va)
		blocks[i] = m.ProtoBlock(x.va)
		homes[i] = m.Protocol().Home(blocks[i])
	}
	prep.End()

	layer := func(name string, f func()) {
		sp := parent.StartChild(name)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		sp.End()
		if acc[name] == nil {
			acc[name] = &timing{}
		}
		acc[name].ns += float64(d)
		acc[name].n += float64(len(refs))
	}
	layer("cache.slc_read", func() {
		c := cache.New(cfg.SLC)
		for _, x := range refs {
			c.Read(uint64(x.va))
		}
	})
	layer("mem.am_lookup", func() {
		am := mem.New(g)
		for _, b := range blocks {
			if am.Lookup(b) == mem.Invalid {
				am.Install(b, mem.Exclusive)
			}
		}
	})
	layer("coherence.dir_lookup", func() {
		d := coherence.NewDirectory()
		for _, b := range blocks {
			if d.Lookup(b) == nil {
				d.Ensure(b)
			}
		}
	})
	layer("vm.ensure", func() {
		sys := vm.NewSystem(g, m.VM().Mode())
		for _, x := range refs {
			sys.Ensure(x.va)
		}
	})
	layer("network.send", func() {
		f := network.New(g.Nodes(), cfg.Timing.NetRequest, cfg.Timing.NetBlock)
		for i, x := range refs {
			f.Send(uint64(i)*64, x.node, homes[i], network.Request)
		}
	})
	layer("tlb.access", func() {
		b := tlb.NewFullyAssoc(8, cfg.Seed)
		for _, p := range pages {
			b.Access(p)
		}
	})
	layer("tlb.bank_access", func() {
		b, err := tlb.NewBank(tlb.PaperSpecs(), 0, cfg.Seed)
		if err != nil {
			panic(err) // PaperSpecs is a fixed, valid grid
		}
		for _, p := range pages {
			b.Access(p)
		}
	})
}
