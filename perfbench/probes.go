package main

import (
	"strings"
	"time"

	"vcoma"
)

// A traced run reports every per-layer metric. The layers its own workload
// does not exercise are measured by probes: the same traced measurements on
// small fixed inputs (RADIX at test scale, a short serve loop). Each probe
// runs on its own recorder, its operations count toward the run's, and only
// metrics the workload left unset are taken from it.
var probes = []struct {
	covers []string // metric-name prefixes the probe measures
	run    func(*run) error
}{
	{[]string{"workload.", "machine.", "trace.gen", "sim.", "cache.", "mem.", "coherence.", "vm.", "network.", "tlb.", "core.", "obs.",
		"trace.top_s.setup", "trace.top_s.generator", "trace.top_s.engine", "trace.top_s.replays"}, func(r *run) error {
		cs, err := cells(vcoma.ScaleTest, r.seed, []string{"RADIX"}, l0AndV)
		if err != nil {
			return err
		}
		return simSmallTraced(r, cs)
	}},
	{[]string{"check."}, func(r *run) error {
		cs, err := cells(vcoma.ScaleTest, r.seed, []string{"RADIX"}, l0AndV)
		if err != nil {
			return err
		}
		return checkedTraced(r, cs)
	}},
	{[]string{"experiments.", "runner.", "fsio.", "trace.top_s.runner"}, func(r *run) error {
		return reportTraced(r, suiteSpec{vcoma.ScaleTest, []string{"RADIX"}})
	}},
	{[]string{"serve.", "trace.top_s.serve"}, serveMixed},
}

// probeSeconds is a probe's measurement time (the serve probe's loop).
const probeSeconds = 1

// probeMissing runs every probe that measures a per-layer metric r has not
// set, and fills the unset metrics from it.
func probeMissing(r *run) {
	for _, p := range probes {
		if !missingAny(r, p.covers) {
			continue
		}
		pr := &run{seed: r.seed, seconds: probeSeconds, traced: true, start: time.Now(), work: r.work,
			rec: newRecorder(), got: make(map[string]string), probe: true}
		if err := p.run(pr); err != nil {
			pr.rec.fail("layer probe: %v", err)
		}
		r.rec.attempted += pr.rec.attempted
		r.rec.failed += pr.rec.failed
		for _, d := range perLayer {
			if _, set := r.rec.values[d.Name]; !set {
				if v, ok := pr.rec.values[d.Name]; ok {
					r.rec.set(d.Name, v)
				}
			}
		}
	}
}

// missingAny reports whether r has left unset any per-layer metric whose name
// starts with one of prefixes.
func missingAny(r *run, prefixes []string) bool {
	for _, d := range perLayer {
		if _, set := r.rec.values[d.Name]; set {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				return true
			}
		}
	}
	return false
}
