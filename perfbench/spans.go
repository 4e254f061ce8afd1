package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vcoma/internal/obs"
)

// spanTimes folds an exported span tree into per-name self time (a span's
// duration minus the part of it its children cover) and per-name duration
// of the top-level spans, both in seconds.
func spanTimes(tree obs.SpanTree) (self, top map[string]float64, count int) {
	self = make(map[string]float64)
	top = make(map[string]float64)
	var walk func(n obs.SpanNode)
	walk = func(n obs.SpanNode) {
		count++
		self[n.Name] += float64(n.DurUS-covered(n)) / 1e6
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range tree.Spans {
		top[root.Name] += float64(root.DurUS) / 1e6
		walk(root)
	}
	return self, top, count
}

// covered returns how many microseconds of n's interval its children cover,
// counting overlapping children (concurrent workers) once.
func covered(n obs.SpanNode) uint64 {
	type iv struct{ lo, hi uint64 }
	ivs := make([]iv, 0, len(n.Children))
	end := n.StartUS + n.DurUS
	for _, c := range n.Children {
		lo, hi := max(c.StartUS, n.StartUS), min(c.StartUS+c.DurUS, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi uint64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// finishTrace reports the traced section's wall time, the time its
// top-level spans account for, and writes the spans as a Chrome trace
// (Perfetto) under .bench_build/out/. It returns per-name self times.
func finishTrace(r *run, workload string, tr *obs.Trace, wall time.Duration) map[string]float64 {
	tree := tr.Export()
	self, top, n := spanTimes(tree)
	total := 0.0
	for name, s := range top {
		r.rec.set("trace.top_s."+name, s)
		total += s
	}
	r.rec.set("trace.wall_s", wall.Seconds())
	r.rec.set("trace.span_coverage", total/wall.Seconds())
	if r.probe {
		return self
	}

	t := obs.NewTracer(n+1, "")
	tr.AppendChrome(t, 1, 1)
	path := filepath.Join(".bench_build", "out", fmt.Sprintf("%s-seed%d.trace.json", workload, r.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		r.rec.fail("writing spans: %v", err)
	} else if err := t.WriteFile(path, "perfbench"); err != nil {
		r.rec.fail("writing spans: %v", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	return self
}
