// Command perfbench is the repository benchmark. It runs one seeded workload
// in a child process, measures it for a set time, checks that every output is
// correct, and prints the workload's metrics as one JSON line: the end-to-end
// metrics untraced, or the per-layer split from a separate traced run.
//
//	perfbench -workload sim-small -seed 1 -seconds 25 -trace 0
//	perfbench -workload all             # every workload, two seeds, both modes
//	perfbench -compare old.json new.json
//	perfbench -write-digests            # re-record digests.txt (default seed)
//
// README.md explains the workloads, the metrics and what each layer metric
// should move. Build and run it through run.sh, which keeps every artifact
// under .bench_build/.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the second seed -workload all runs: one not used while the
// benchmark was tuned.
const heldOutSeed = 7919

// childTimeout bounds one workload process, well inside the 180 s a run may
// take.
const childTimeout = 170 * time.Second

// workloads maps each workload name to its implementation, in the order
// -workload all runs them.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"sim-small", simSmall},
	{"report-small", reportSmall},
	{"checked-test", checkedTest},
	{"serve-mixed", serveMixed},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name     = flag.String("workload", "", "workload to run: sim-small, report-small, checked-test, serve-mixed, or all")
		seed     = flag.Uint64("seed", defaultSeed, "input seed")
		seconds  = flag.Float64("seconds", 25, "measurement time per run")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out      = flag.String("out", "", "also save the run records (host fingerprint included) to this JSON file")
		compare  = flag.Bool("compare", false, "compare two files saved with -out: perfbench -compare OLD NEW")
		writeDig = flag.Bool("write-digests", false, "re-record the default-seed digests into perfbench/digests.txt")
		child    = flag.Bool("child", false, "internal: run the workload in this process")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs two files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *writeDig:
		return writeDigests("perfbench/digests.txt")
	case *traceOn != 0 && *traceOn != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceOn)
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	case *child:
		return runChild(*name, *seed, *seconds, *traceOn == 1)
	case *name == "all":
		return runAll(*seconds, *out)
	}
	if lookup(*name) == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	h := thisHost()
	fmt.Printf("host %s\n", h)
	rec, err := spawn(*name, *seed, *seconds, *traceOn)
	if err != nil {
		return err
	}
	rec.Host = h
	printTable(os.Stdout, rec)
	if *out != "" {
		if err := saveRecords(*out, []record{rec}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", *name, rec.Result.Failed, rec.Result.Attempted)
	}
	return nil
}

// lookup returns the named workload's implementation, or nil.
func lookup(name string) func(*run) error {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// spawn runs one workload in a child process, one at a time, and adds the
// child's peak resident set size to an untraced result.
func spawn(name string, seed uint64, seconds float64, traceOn int) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(traceOn))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return record{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return record{}, fmt.Errorf("%s seed %d: reading the child's result: %w", name, seed, err)
	}
	if traceOn == 0 {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return record{}, errors.New("no resource usage for the workload process")
		}
		res.Metrics["peak_rss_mb"] = metric{Value: float64(ru.Maxrss) / 1024, Unit: "MB"} // Maxrss is in KiB
	}
	return record{Workload: name, Seed: seed, Trace: traceOn, Result: res}, nil
}

// runAll runs every workload at the default and the held-out seed, untraced
// and traced, and prints every metric. It fails if any operation failed.
func runAll(seconds float64, out string) error {
	h := thisHost()
	fmt.Printf("host %s\n", h)
	var recs []record
	failed := 0
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			for _, traceOn := range []int{0, 1} {
				rec, err := spawn(w.name, seed, seconds, traceOn)
				if err != nil {
					return err
				}
				rec.Host = h
				printTable(os.Stdout, rec)
				failed += rec.Result.Failed
				recs = append(recs, rec)
			}
		}
	}
	if out != "" {
		if err := saveRecords(out, recs); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	fmt.Println("all workloads correct")
	return nil
}

func printTable(w io.Writer, rec record) {
	fmt.Fprintf(w, "== %s seed=%d trace=%d correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

func saveRecords(path string, recs []record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run is one workload process's state.
type run struct {
	seed    uint64
	seconds float64
	traced  bool
	start   time.Time
	work    string // scratch directory inside the checkout, removed at exit
	rec     *recorder
	want    map[string]string // committed digests; nil unless seed == defaultSeed
	got     map[string]string // digests this run produced
	probe   bool              // a layer probe inside another workload's traced run
}

// runChild runs one workload in this process and prints its result line.
func runChild(name string, seed uint64, seconds float64, traced bool) error {
	fn := lookup(name)
	if fn == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{seed: seed, seconds: seconds, traced: traced, start: time.Now(), work: work,
		rec: newRecorder(), got: make(map[string]string)}
	if seed == defaultSeed {
		if r.want, err = parseDigests(committedDigests); err != nil {
			return err
		}
	}
	if err := fn(r); err != nil {
		r.rec.fail("%s: %v", name, err)
	}
	if traced {
		probeMissing(r)
	}
	if r.rec.attempted == 0 {
		r.rec.op() // a run that could not start still reports its failure
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line, err := json.Marshal(r.rec.result(defs))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// more reports whether to start repetition rep: at least min repetitions
// run, and a later one starts if a repetition of average length still fits
// in the measurement time.
func (r *run) more(rep, min int) bool {
	if rep < min {
		return true
	}
	elapsed := time.Since(r.start).Seconds()
	return elapsed+elapsed/float64(rep) <= r.seconds
}

// verify checks one output digest against every earlier repetition of the
// same cell in this run and, at the default seed, against the committed one.
func (r *run) verify(workload, cell, d string) {
	key := workload + " " + cell
	if prev, ok := r.got[key]; ok && prev != d {
		r.rec.fail("%s: digest %s differs from the first repetition's %s", key, d, prev)
	}
	r.got[key] = d
	if r.want == nil {
		return
	}
	if w, ok := r.want[key]; !ok {
		r.rec.fail("%s: no committed digest", key)
	} else if w != d {
		r.rec.fail("%s: digest %s, committed %s", key, d, w)
	}
}
