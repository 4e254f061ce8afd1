package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vcoma"
	"vcoma/internal/experiments"
	"vcoma/internal/fsio"
	"vcoma/internal/obs"
	"vcoma/internal/runner"
)

// suiteSpec names the benchmarks and scale a suite evaluates.
type suiteSpec struct {
	scale   vcoma.Scale
	benches []string
}

// reportSpec is report-small's suite; reportWorkers is the runner's pool
// width (the host's two CPUs).
var reportSpec = suiteSpec{vcoma.ScaleSmall, []string{"RADIX", "FFT"}}

const reportWorkers = 2

// suite is the vcoma-report evaluation of sp. The suite builds its
// benchmarks by name, so the seed reaches it through the machine
// configuration.
func suite(r *run, sp suiteSpec, dir string, fs *fsio.FS, prog *runner.Progress, ctx context.Context) *experiments.Suite {
	return &experiments.Suite{
		Cfg:        baseConfig(r.seed),
		Scale:      sp.scale,
		Benchmarks: sp.benches,
		Jobs:       reportWorkers,
		CacheDir:   dir,
		FS:         fs,
		Progress:   prog,
		Context:    ctx,
	}
}

// benchEvents counts the events each named benchmark executes at scale with
// its stock parameters, the inputs the suite and the service simulate. Every
// pass that simulates a benchmark executes exactly this many events,
// whatever its scheme or TLB.
func benchEvents(names []string, scale vcoma.Scale) (map[string]uint64, error) {
	cfg := experiments.ConfigForScale(vcoma.Baseline(), scale)
	out := make(map[string]uint64)
	for _, name := range names {
		b, err := vcoma.BenchmarkByName(name, scale)
		if err != nil {
			return nil, err
		}
		prog, err := b.Build(cfg.Geometry, cfg.Geometry.Nodes())
		if err != nil {
			return nil, err
		}
		for _, s := range prog.Streams() {
			for _, ok := s.Next(); ok; _, ok = s.Next() {
				out[name]++
			}
		}
	}
	return out, nil
}

// passEvents is the number of events a plan job simulated: every job kind
// but the layout-only Figure 11 simulates its benchmark once, unless the
// cache answered it (plan jobs with equal keys share one entry).
func passEvents(j runner.JobReport, events map[string]uint64) uint64 {
	kind, rest, _ := strings.Cut(j.Name, "/")
	bench, _, _ := strings.Cut(rest, "/")
	if j.Cached || kind == "fig11" {
		return 0
	}
	return events[bench]
}

// reportPass is one Suite.Run with its rendered Markdown and per-job report.
type reportPass struct {
	markdown string
	jobs     []runner.JobReport
	hits     int
	wall     time.Duration
}

func runSuite(s *experiments.Suite) (reportPass, error) {
	t0 := time.Now()
	res, err := s.Run()
	wall := time.Since(t0)
	if err != nil {
		return reportPass{}, err
	}
	return reportPass{
		markdown: res.RenderMarkdown(),
		jobs:     s.Progress.Summary().Jobs,
		hits:     res.CacheHits,
		wall:     wall,
	}, nil
}

// reportSmall renders the vcoma-report suite for RADIX and FFT at small
// scale on a fresh cache directory: a cold pass, then warm reruns that the
// cache answers.
func reportSmall(r *run) error {
	if r.traced {
		return reportTraced(r, reportSpec)
	}
	events, err := benchEvents(reportSpec.benches, reportSpec.scale)
	if err != nil {
		return err
	}
	setups, err := setupSamples(func(i int) (time.Duration, error) {
		dir := filepath.Join(r.work, "setup-"+strconv.Itoa(i))
		defer os.RemoveAll(dir)
		t0 := time.Now()
		if _, err := suite(r, reportSpec, dir, nil, nil, nil).Plan(); err != nil {
			return 0, err
		}
		_, err := runner.OpenCacheFS(dir, fsio.New(nil))
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	var walls, rates, jobRates, jobs, warm []float64
	for rep := 0; r.more(rep, 1); rep++ {
		cold, hot, err := reportColdWarm(r, reportSpec, filepath.Join(r.work, "rep-"+strconv.Itoa(rep)), nil, context.Background())
		if err != nil {
			return err
		}
		var ev uint64
		for _, j := range cold.jobs {
			if !j.Cached {
				ev += passEvents(j, events)
				jobs = append(jobs, j.Seconds*1e3)
			}
		}
		walls = append(walls, cold.wall.Seconds())
		rates = append(rates, float64(ev)/cold.wall.Seconds())
		jobRates = append(jobRates, float64(len(cold.jobs))/cold.wall.Seconds())
		for _, h := range hot {
			warm = append(warm, h.wall.Seconds()*1e3/float64(len(h.jobs)))
		}
	}
	r.rec.set("setup_s", median(setups))
	reportJobs(r, walls, rates, jobRates, jobs, warm)
	return nil
}

// warmReruns is how many warm reruns follow each cold pass: one takes about
// a millisecond, so several give its median enough samples.
const warmReruns = 10

// reportColdWarm runs the cold pass and the warm reruns on a fresh cache
// dir, checks every one, and removes the dir.
func reportColdWarm(r *run, sp suiteSpec, dir string, fs *fsio.FS, ctx context.Context) (cold reportPass, warm []reportPass, err error) {
	defer os.RemoveAll(dir)
	cold, err = runSuite(suite(r, sp, dir, fs, runner.NewProgress(nil), ctx))
	if err != nil {
		return cold, nil, err
	}
	r.checkPass(cold)
	sum := sha256.Sum256([]byte(cold.markdown))
	r.verify("report-small", "markdown", hex.EncodeToString(sum[:])[:16])
	// Collect the cold pass's garbage first, so no collection it started
	// runs under the millisecond-long warm reruns.
	runtime.GC()
	for i := 0; i < warmReruns; i++ {
		w, err := runSuite(suite(r, sp, dir, fs, runner.NewProgress(nil), ctx))
		if err != nil {
			return cold, warm, err
		}
		r.checkPass(w)
		if w.markdown != cold.markdown {
			r.rec.fail("report-small: a warm rerun rendered different Markdown than the cold pass")
		}
		if w.hits != len(w.jobs) {
			r.rec.fail("report-small: a warm rerun hit the cache for %d of %d passes", w.hits, len(w.jobs))
		}
		warm = append(warm, w)
	}
	return cold, warm, nil
}

// checkPass counts every job of a suite pass and fails the ones that erred.
func (r *run) checkPass(p reportPass) {
	for _, j := range p.jobs {
		r.rec.op()
		if j.Error != "" {
			r.rec.fail("report-small %s: %s", j.Name, j.Error)
		}
	}
}

// reportTraced runs the untraced reference, then the cold pass and warm
// reruns with a span on the runner's context (the runner and the passes nest
// their own spans under it) and an op recorder on the cache's filesystem.
func reportTraced(r *run, spec suiteSpec) error {
	events, err := benchEvents(spec.benches, spec.scale)
	if err != nil {
		return err
	}
	ref, _, err := reportColdWarm(r, spec, filepath.Join(r.work, "ref"), nil, context.Background())
	if err != nil {
		return err
	}

	tr := obs.NewTrace("report-small")
	fs := fsio.New(nil)
	ops := fsio.NewRecorder(r.work, false)
	fs.SetRecorder(ops)
	dir := filepath.Join(r.work, "traced")
	t0 := time.Now()
	setup := tr.StartSpan("setup")
	sp := setup.StartChild("experiments.plan")
	_, err = suite(r, spec, dir, fs, nil, nil).Plan()
	sp.End()
	if err != nil {
		setup.End()
		return err
	}
	sp = setup.StartChild("runner.open_cache")
	_, err = runner.OpenCacheFS(dir, fs)
	sp.End()
	setup.End()
	if err != nil {
		return err
	}
	top := tr.StartSpan("runner")
	cold, warm, err := reportColdWarm(r, spec, dir, fs, obs.WithSpan(context.Background(), top))
	top.End()
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	if cold.markdown != ref.markdown {
		r.rec.fail("report-small: the traced pass rendered different Markdown than the untraced one")
	}
	self := finishTrace(r, "report-small", tr, wall)

	var observe, timed, busy float64
	var want uint64
	for _, j := range cold.jobs {
		kind, _, _ := strings.Cut(j.Name, "/")
		switch kind {
		case "observe":
			observe += j.Seconds
		case "table4", "fig10":
			timed += j.Seconds
		}
		busy += j.Seconds
		want += passEvents(j, events)
	}
	got, err := simulatedEvents(tr.Export())
	if err != nil {
		return err
	}
	if got != want {
		r.rec.fail("report-small: the passes simulated %d events, expected %d", got, want)
	}
	r.rec.set("experiments.observe_pass_s", observe)
	r.rec.set("experiments.timed_pass_s", timed)
	var warmWalls []float64
	for _, w := range warm {
		warmWalls = append(warmWalls, w.wall.Seconds())
	}
	r.rec.set("runner.warm_s", median(warmWalls))
	r.rec.set("runner.cache_hits", float64(warm[0].hits))
	r.rec.set("runner.busy_frac", busy/(reportWorkers*cold.wall.Seconds()))
	r.rec.set("workload.build_s", self["build"])
	r.rec.set("sim.run_s", self["simulate"])
	r.rec.set("sim.ns_per_event", self["simulate"]*1e9/float64(got))
	r.rec.set("sim.events", float64(got))
	setFsio(r, fs, ops)
	r.rec.set("trace.overhead_ratio", cold.wall.Seconds()/ref.wall.Seconds())
	return nil
}

// setFsio reports the filesystem seam's operation count and, from its op
// log, how many of them were file or directory fsyncs.
func setFsio(r *run, fs *fsio.FS, ops *fsio.Recorder) {
	r.rec.set("fsio.ops", float64(fs.Counters().Ops))
	fsyncs := 0
	for _, op := range ops.Ops() {
		if op.Op == fsio.OpFsync || op.Op == fsio.OpFsyncDir {
			fsyncs++
		}
	}
	r.rec.set("fsio.fsyncs", float64(fsyncs))
}

// simulatedEvents sums the "events" attribute the experiment passes put on
// their "simulate" spans.
func simulatedEvents(tree obs.SpanTree) (uint64, error) {
	var total uint64
	var walk func(n obs.SpanNode) error
	walk = func(n obs.SpanNode) error {
		if n.Name == "simulate" {
			for _, a := range n.Attrs {
				if a.Key == "events" {
					v, err := strconv.ParseUint(a.Val, 10, 64)
					if err != nil {
						return fmt.Errorf("simulate span: %w", err)
					}
					total += v
				}
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range tree.Spans {
		if err := walk(root); err != nil {
			return 0, err
		}
	}
	return total, nil
}
