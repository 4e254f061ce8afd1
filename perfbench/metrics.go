package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below are
// the benchmark's vocabulary; BENCHMARK.json lists exactly these names (a
// test keeps the two in step).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run. A workload without a cache reads "cold job" as a cell timed
// with its set-up and "warm job" as the same cell's run alone (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"job_ms_p50", "ms"},
	{"job_ms_p95", "ms"},
	{"cold_job_ms_p50", "ms"},
	{"warm_job_ms_p50", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the traced run's metrics. Every traced run reports all of
// them; the layers its workload does not exercise are measured by probes
// (probes.go; README.md lists which workload measures which layer).
var perLayer = []metricDef{
	{"workload.build_s", "s"},
	{"machine.new_s", "s"},
	{"machine.preload_s", "s"},
	{"trace.gen_s", "s"},
	{"trace.gen_events_per_s", "1/s"},
	{"sim.run_s", "s"},
	{"sim.run_s.l0", "s"},
	{"sim.run_s.vcoma", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.ns_per_event.l0", "ns"},
	{"sim.ns_per_event.vcoma", "ns"},
	{"sim.step_ns.compute", "ns"},
	{"sim.step_ns.sync", "ns"},
	{"machine.access_ns.flc_hit", "ns"},
	{"machine.access_ns.slc_hit", "ns"},
	{"machine.access_ns.local_am", "ns"},
	{"machine.access_ns.remote", "ns"},
	{"machine.refs.flc_hit", "count"},
	{"machine.refs.slc_hit", "count"},
	{"machine.refs.local_am", "count"},
	{"machine.refs.remote", "count"},
	{"cache.slc_read_ns", "ns"},
	{"mem.am_lookup_ns", "ns"},
	{"coherence.dir_lookup_ns", "ns"},
	{"vm.ensure_ns", "ns"},
	{"network.send_ns", "ns"},
	{"tlb.access_ns", "ns"},
	{"tlb.bank_access_ns", "ns"},
	{"coherence.remote_reads", "count"},
	{"coherence.invalidations", "count"},
	{"coherence.injections", "count"},
	{"coherence.dir_entries", "count"},
	{"vm.mapped_pages", "count"},
	{"vm.faults", "count"},
	{"network.requests", "count"},
	{"network.blocks", "count"},
	{"network.queue_cycles", "cycles"},
	{"tlb.misses", "count"},
	{"core.dlb_misses", "count"},
	{"sim.events", "count"},
	{"sim.exec_cycles", "cycles"},
	{"experiments.observe_pass_s", "s"},
	{"experiments.timed_pass_s", "s"},
	{"runner.warm_s", "s"},
	{"runner.cache_hits", "count"},
	{"runner.busy_frac", "ratio"},
	{"fsio.ops", "count"},
	{"fsio.fsyncs", "count"},
	{"check.overhead_ratio", "ratio"},
	{"check.post_access_ns", "ns"},
	{"check.refs", "count"},
	{"check.violations", "count"},
	{"obs.disabled_ratio", "ratio"},
	{"obs.enabled_ratio", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.sims_per_job", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.span_coverage", "ratio"},
	{"trace.top_s.setup", "s"},
	{"trace.top_s.generator", "s"},
	{"trace.top_s.engine", "s"},
	{"trace.top_s.replays", "s"},
	{"trace.top_s.runner", "s"},
	{"trace.top_s.serve", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output record: the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// recorder accumulates one workload run's operations, failures and metric
// values.
type recorder struct {
	attempted int
	failed    int
	values    map[string]float64
}

func newRecorder() *recorder { return &recorder{values: make(map[string]float64)} }

// op counts one attempted operation.
func (r *recorder) op() { r.attempted++ }

// fail counts one failed operation and says why on standard error.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// check counts a failure when err is non-nil.
func (r *recorder) check(err error) bool {
	if err != nil {
		r.fail("%v", err)
		return false
	}
	return true
}

func (r *recorder) set(name string, v float64) { r.values[name] = v }

// add accumulates into a metric (counts summed over cells).
func (r *recorder) add(name string, v float64) { r.values[name] += v }

// result renders the record with exactly the metrics of defs, in the units
// the table gives. A metric the run did not set reads 0.
func (r *recorder) result(defs []metricDef) result {
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
