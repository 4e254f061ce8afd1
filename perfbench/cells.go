package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"vcoma"
	"vcoma/internal/config"
	"vcoma/internal/experiments"
	"vcoma/internal/machine"
	"vcoma/internal/sim"
	"vcoma/internal/trace"
)

// defaultSeed reproduces the repository's stock inputs: every workload seed
// and the machine seed keep the values their scale defines. The committed
// digests (digests.txt) are recorded at this seed.
const defaultSeed = 1

// derive mixes the benchmark seed into a stock seed. At defaultSeed the stock
// value comes back unchanged.
func derive(stock, seed uint64) uint64 {
	return stock ^ (seed-defaultSeed)*0x9E3779B97F4A7C15
}

// benchmark builds one of the six workloads at scale with its Params.Seed
// derived from seed.
func benchmark(name string, scale vcoma.Scale, seed uint64) (vcoma.Benchmark, error) {
	switch name {
	case "RADIX":
		p := scale.Radix()
		p.Seed = derive(p.Seed, seed)
		return vcoma.NewRadix(p), nil
	case "FFT":
		p := scale.FFT()
		p.Seed = derive(p.Seed, seed)
		return vcoma.NewFFT(p), nil
	case "FMM":
		p := scale.FMM()
		p.Seed = derive(p.Seed, seed)
		return vcoma.NewFMM(p), nil
	case "OCEAN":
		p := scale.Ocean()
		p.Seed = derive(p.Seed, seed)
		return vcoma.NewOcean(p), nil
	case "RAYTRACE":
		p := scale.Raytrace()
		p.Seed = derive(p.Seed, seed)
		return vcoma.NewRaytrace(p), nil
	case "BARNES":
		p := scale.Barnes()
		p.Seed = derive(p.Seed, seed)
		return vcoma.NewBarnes(p), nil
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}

// baseConfig is the paper machine with its seed derived from seed.
func baseConfig(seed uint64) config.Config {
	cfg := config.Baseline()
	cfg.Seed = derive(cfg.Seed, seed)
	return cfg
}

// cell is one (benchmark, scheme) simulation.
type cell struct {
	name  string
	bench vcoma.Benchmark
	cfg   config.Config
}

// cells enumerates benches × schemes at scale, benchmark-major.
func cells(scale vcoma.Scale, seed uint64, benches []string, schemes []config.Scheme) ([]cell, error) {
	var out []cell
	base := experiments.ConfigForScale(baseConfig(seed), scale)
	for _, name := range benches {
		b, err := benchmark(name, scale, seed)
		if err != nil {
			return nil, err
		}
		for _, sch := range schemes {
			out = append(out, cell{name: name + "/" + sch.String(), bench: b, cfg: base.WithScheme(sch)})
		}
	}
	return out, nil
}

// schemeKey is the short scheme label used in metric names.
func schemeKey(s config.Scheme) string {
	if s == config.VCOMA {
		return "vcoma"
	}
	return fmt.Sprintf("l%d", int(s))
}

// prepare repeats vcoma.Run's set-up: machine.New, Build, Preload, sim.New.
// It returns the engine, ready to Run, and the generator streams it reads.
func prepare(c cell) (*sim.Engine, []trace.Stream, error) {
	m, err := machine.New(c.cfg)
	if err != nil {
		return nil, nil, err
	}
	prog, err := c.bench.Build(c.cfg.Geometry, c.cfg.Geometry.Nodes())
	if err != nil {
		return nil, nil, err
	}
	m.Preload(prog.Layout())
	streams := prog.Streams()
	eng, err := sim.New(m, streams)
	if err != nil {
		closeStreams(streams)
		return nil, nil, err
	}
	return eng, streams, nil
}

// closeStreams stops the generator goroutines of streams that never ran.
func closeStreams(streams []trace.Stream) {
	for _, s := range streams {
		trace.CloseStream(s)
	}
}

// digest fingerprints a run's simulated timing: execution cycles, events and
// every processor's statistics. Two runs with equal digests simulated the
// same thing.
func digest(res sim.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(res.ExecTime)
	put(res.Events)
	for _, p := range res.Procs {
		for _, v := range []uint64{p.Busy, p.Sync, p.StallLocal, p.StallRemote, p.Trans, p.Finish, p.Refs} {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// addCounts accumulates a finished cell's exact per-layer counters into the
// run's metrics. A change that only speeds the simulator up leaves every one
// of them unchanged.
func addCounts(r *recorder, m *machine.Machine, res sim.Result) {
	ps := m.Protocol().Stats()
	fs := m.Protocol().Fabric().Stats()
	r.add("coherence.remote_reads", float64(ps.RemoteReads))
	r.add("coherence.invalidations", float64(ps.Invalidations))
	r.add("coherence.injections", float64(ps.Injections))
	r.add("coherence.dir_entries", float64(m.Protocol().Directory().Len()))
	r.add("vm.mapped_pages", float64(m.VM().MappedPages()))
	r.add("vm.faults", float64(m.VM().Faults()))
	r.add("network.requests", float64(fs.Requests))
	r.add("network.blocks", float64(fs.Blocks))
	r.add("network.queue_cycles", float64(fs.QueueCycles))
	r.add("tlb.misses", float64(m.TotalStats().TLBMisses))
	for n := 0; n < m.Geometry().Nodes(); n++ {
		if e := m.Engine(vcoma.Node(n)); e != nil {
			r.add("core.dlb_misses", float64(e.Stats().Misses))
		}
	}
	r.add("sim.events", float64(res.Events))
	r.add("sim.exec_cycles", float64(res.ExecTime))
}
