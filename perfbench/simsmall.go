package main

import (
	"time"

	"vcoma"
	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/obs"
	"vcoma/internal/runner"
	"vcoma/internal/sim"
	"vcoma/internal/trace"
	"vcoma/internal/workload"
)

var (
	allBenches = []string{"RADIX", "FFT", "FMM", "OCEAN", "RAYTRACE", "BARNES"}
	l0AndV     = []config.Scheme{config.L0TLB, config.VCOMA}
)

// setupTrials is the least number of set-ups the median setup_s is taken
// over; a set-up of a few milliseconds repeats until setupBudget is spent
// too, so its median rests on many samples.
const (
	setupTrials = 5
	setupBudget = 250 * time.Millisecond
	maxTrials   = 200
)

// setupSamples repeats trial, which returns the set-up time it measured,
// until there are setupTrials samples and setupBudget spent (at most
// maxTrials). It returns the samples in seconds.
func setupSamples(trial func(i int) (time.Duration, error)) ([]float64, error) {
	var out []float64
	var total time.Duration
	for len(out) < setupTrials || (total < setupBudget && len(out) < maxTrials) {
		d, err := trial(len(out))
		if err != nil {
			return nil, err
		}
		total += d
		out = append(out, d.Seconds())
	}
	return out, nil
}

// bare runs one cell through vcoma.Run's steps and returns its result with
// the set-up and run times apart.
func bare(c cell) (res sim.Result, setup, run time.Duration, err error) {
	t0 := time.Now()
	eng, _, err := prepare(c)
	if err != nil {
		return res, 0, 0, err
	}
	t1 := time.Now()
	res, err = eng.Run()
	return res, t1.Sub(t0), time.Since(t1), err
}

// setupOnly times the set-up of every cell without running them.
func setupOnly(cs []cell) (time.Duration, error) {
	var total time.Duration
	for _, c := range cs {
		t0 := time.Now()
		_, streams, err := prepare(c)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		closeStreams(streams)
	}
	return total, nil
}

// simSmall runs the six benchmarks under L0-TLB and V-COMA at small scale,
// back to back on one goroutine, with no checker or observer attached.
func simSmall(r *run) error {
	cs, err := cells(vcoma.ScaleSmall, r.seed, allBenches, l0AndV)
	if err != nil {
		return err
	}
	if r.traced {
		return simSmallTraced(r, cs)
	}
	setups := timeCells(r, "sim-small", cs, 2, func(c cell) (time.Duration, time.Duration, sim.Result, error) {
		res, st, rt, err := bare(c)
		return st, rt, res, err
	})
	for len(setups) < setupTrials {
		d, err := setupOnly(cs)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	r.rec.set("setup_s", median(setups))
	return nil
}

// timeCells runs every cell once per repetition, at least minReps times and
// while measurement time remains, checking each result's digest. It sets
// every end-to-end metric but setup_s and returns each repetition's total
// set-up time. A job is one cell; a cold job is timed with its set-up, a
// warm job is the run alone on a machine already set up.
func timeCells(r *run, workload string, cs []cell, minReps int, runCell func(cell) (setup, run time.Duration, res sim.Result, err error)) []float64 {
	var setups, walls, rates, jobRates, jobs, warm []float64
	for rep := 0; r.more(rep, minReps); rep++ {
		var setup, wall time.Duration
		var events uint64
		for _, c := range cs {
			r.rec.op()
			st, rt, res, err := runCell(c)
			if !r.rec.check(err) {
				continue
			}
			r.verify(workload, c.name, digest(res))
			setup += st
			wall += rt
			events += res.Events
			jobs = append(jobs, (st+rt).Seconds()*1e3)
			warm = append(warm, rt.Seconds()*1e3)
		}
		setups = append(setups, setup.Seconds())
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(events)/wall.Seconds())
		jobRates = append(jobRates, float64(len(cs))/(setup+wall).Seconds())
	}
	reportJobs(r, walls, rates, jobRates, jobs, warm)
	return setups
}

// reportJobs sets the end-to-end metrics other than setup_s from
// per-repetition and per-job samples, for workloads whose every timed job
// is a first-time (cold) one.
func reportJobs(r *run, walls, rates, jobRates, jobs, warm []float64) {
	r.rec.set("wall_s", median(walls))
	r.rec.set("events_per_s", median(rates))
	r.rec.set("jobs_per_s", median(jobRates))
	r.rec.set("job_ms_p50", median(jobs))
	r.rec.set("job_ms_p95", quantile(jobs, 0.95))
	r.rec.set("cold_job_ms_p50", median(jobs))
	r.rec.set("warm_job_ms_p50", median(warm))
}

// simSmallTraced measures the per-layer split of sim-small. Per cell it first
// runs the untraced reference, then the same run through RunInstrumented with
// a nil and with an enabled observer, then the traced reproduction: set-up
// steps, stream pregeneration, and the engine over the pregenerated streams
// with sampled step and access timing, followed by the layer replays.
func simSmallTraced(r *run, cs []cell) error {
	var refWall, disabledWall, enabledWall time.Duration
	ref := make([]string, len(cs))
	for i, c := range cs {
		r.rec.op()
		res, st, rt, err := bare(c)
		if !r.rec.check(err) {
			continue
		}
		ref[i] = digest(res)
		r.verify("sim-small", c.name, ref[i])
		refWall += st + rt

		t0 := time.Now()
		out, err := vcoma.RunInstrumented(c.cfg, c.bench, nil)
		disabledWall += time.Since(t0)
		if r.rec.check(err) && digest(out.Sim) != ref[i] {
			r.rec.fail("%s: RunInstrumented(nil) diverged from the bare run", c.name)
		}
		o := vcoma.NewObserver(vcoma.ObserverOptions{MetricsInterval: runner.DefaultMetricsInterval})
		t0 = time.Now()
		out, err = vcoma.RunInstrumented(c.cfg, c.bench, o)
		enabledWall += time.Since(t0)
		if r.rec.check(err) && digest(out.Sim) != ref[i] {
			r.rec.fail("%s: the observed run diverged from the bare run", c.name)
		}
	}
	r.rec.set("obs.disabled_ratio", disabledWall.Seconds()/refWall.Seconds())
	r.rec.set("obs.enabled_ratio", enabledWall.Seconds()/refWall.Seconds())

	tr := obs.NewTrace("sim-small")
	acc := make(replayNS)
	st := &stepTimer{}
	var events, genEvents [2]uint64 // by l0AndV index
	t0 := time.Now()
	for i, c := range cs {
		r.rec.op()
		st.reset()
		m, res, n, err := tracedCell(tr, c, st)
		if !r.rec.check(err) {
			continue
		}
		if digest(res) != ref[i] {
			r.rec.fail("%s: the traced run diverged from the untraced one", c.name)
		}
		addCounts(r.rec, m, res)
		k := 0
		if c.cfg.Scheme == config.VCOMA {
			k = 1
		}
		events[k] += res.Events
		genEvents[k] += n
		sp := tr.StartSpan("replays")
		replay(sp, m, c.cfg, st.trace, acc)
		sp.End()
	}
	wall := time.Since(t0)
	self := finishTrace(r, "sim-small", tr, wall)

	for _, name := range []string{"workload.build", "machine.new", "machine.preload", "trace.gen"} {
		r.rec.set(name+"_s", self[name])
	}
	r.rec.set("trace.gen_events_per_s", float64(genEvents[0]+genEvents[1])/self["trace.gen"])
	runS := 0.0
	for k, sch := range l0AndV {
		key := schemeKey(sch)
		s := self["sim.run."+key]
		runS += s
		r.rec.set("sim.run_s."+key, s)
		r.rec.set("sim.ns_per_event."+key, s*1e9/float64(events[k]))
	}
	r.rec.set("sim.run_s", runS)
	r.rec.set("sim.ns_per_event", runS*1e9/float64(events[0]+events[1]))
	r.rec.set("sim.step_ns.compute", st.comp.mean())
	r.rec.set("sim.step_ns.sync", st.sync.mean())
	for cl, name := range []string{"flc_hit", "slc_hit", "local_am", "remote"} {
		r.rec.set("machine.access_ns."+name, st.access[cl].mean())
		r.rec.set("machine.refs."+name, float64(st.refs[cl]))
	}
	for name, t := range acc {
		r.rec.set(name+"_ns", t.mean())
	}
	traced := self["workload.build"] + self["machine.new"] + self["machine.preload"] + self["trace.gen"] + self["sim.new"] + runS
	r.rec.set("trace.overhead_ratio", traced/refWall.Seconds())
	return nil
}

// pregenerate drains the program's generators into slice streams, which the
// engine consumes in whole batches (trace.BatchStream) like the generators.
// It returns the streams and their total event count.
func pregenerate(prog *workload.Program) ([]trace.Stream, uint64) {
	var n uint64
	gens := prog.Streams()
	streams := make([]trace.Stream, len(gens))
	for i, g := range gens {
		evs := trace.Drain(g)
		n += uint64(len(evs))
		streams[i] = trace.NewSliceStream(evs)
	}
	return streams, n
}

// tracedCell repeats vcoma.Run's steps for one cell under spans, draining the
// workload's generators into slice streams before the engine is built, and
// runs the engine with st on its step and access seams. It returns the
// machine, the result and the number of pregenerated events.
func tracedCell(tr *obs.Trace, c cell, st *stepTimer) (*machine.Machine, sim.Result, uint64, error) {
	setup := tr.StartSpan("setup")
	sp := setup.StartChild("machine.new")
	m, err := machine.New(c.cfg)
	sp.End()
	if err != nil {
		setup.End()
		return nil, sim.Result{}, 0, err
	}
	sp = setup.StartChild("workload.build")
	prog, err := c.bench.Build(c.cfg.Geometry, c.cfg.Geometry.Nodes())
	sp.End()
	if err != nil {
		setup.End()
		return nil, sim.Result{}, 0, err
	}
	sp = setup.StartChild("machine.preload")
	m.Preload(prog.Layout())
	sp.End()
	setup.End()

	gen := tr.StartSpan("generator")
	sp = gen.StartChild("trace.gen")
	streams, n := pregenerate(prog)
	sp.End()
	gen.End()

	engine := tr.StartSpan("engine")
	defer engine.End()
	sp = engine.StartChild("sim.new")
	eng, err := sim.New(m, streams)
	sp.End()
	if err != nil {
		return nil, sim.Result{}, 0, err
	}
	eng.SetStepObserver(st.step)
	m.SetAccessChecker(st)
	sp = engine.StartChild("sim.run." + schemeKey(c.cfg.Scheme))
	res, err := eng.Run()
	sp.End()
	return m, res, n, err
}
