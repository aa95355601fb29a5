// Command perfbench is the repository's host-time benchmark. It runs
// one workload through the public experiment surface — spec bytes →
// scenario.Parse → scenario.RunCtx on a fresh runner, or an in-process
// simd.Server over loopback HTTP — for a fixed number of seconds,
// checks every output against its expected digest, and prints each
// metric by name and unit, ending with one JSON result line.
//
//	python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0
//
// Only wall-clock and CPU time on the host are performance numbers
// here; the simulated results are the paper's and serve as the
// correctness check. -trace 1 is a separate run that times each layer from outside, by spans around
// calls into its public functions, and reports the per-layer metrics
// instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed the committed digests were computed at.
const defaultSeed = 1

// started approximates the process start when the launcher does not
// pass its own clock reading.
var started = time.Now()

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// seededOutputs marks a workload whose requests' outputs follow
	// -seed, so its committed digests hold only at defaultSeed. The
	// others' outputs are the same at every seed: paper-tables and
	// memory-anecdote are the paper's fixed configurations, and
	// simd-mix's seed moves only its request order and its misses,
	// which are checked by re-running them.
	seededOutputs bool
	why           string
	run           func(*env) (*report, error)
}

var workloads = []*workload{
	{name: "paper-tables", run: runCLI,
		why: "breadth: all six apps, four backends, every table renderer, v1+v2 requests and -j parallelism; a gain on one layer that costs another shows here. No seed axis."},
	{name: "memory-anecdote", run: runCLI,
		why: "one request dominated by moldyn pair rebuilds and the CHAOS inspector, no TreadMarks and no -j: app-layer gains show, tmk/sim/service changes must not. No seed axis."},
	{name: "lock-taskq", seededOutputs: true, run: runCLI,
		why: "seed-derived taskq (8192 items, 16+32 procs) plus a fixed 12-city tsp: TreadMarks faults, diffs, lock arbitration and GC dominate, app compute near zero; for tmk/sim levers."},
	{name: "simd-mix", run: runSimdMix,
		why: "closed-loop simd clients, 5/6 hits (8:1:1 resubmit:status:render, as the repo's callers; no traffic record) and 1/6 fresh-seed misses: decode, codec, render, cache tiers, HTTP."},
}

// env is one invocation's settings.
type env struct {
	w       *workload
	seed    int64
	seconds time.Duration
	traced  bool
	workers int // runner workers and simd clients: one per CPU
	workdir string
	launch  time.Time
	// loopStart is when the passes began: the run's one-time set-up
	// (process start, spec loading, priming) ends here.
	loopStart time.Time
	update    bool // rewrite the committed digests instead of checking them
	check     *digestCheck
	rec       *recorder // nil in the untraced run
}

// report is one invocation's outcome.
type report struct {
	attempted, failed, mismatched int64
	errs                          []string
	metrics                       map[string]float64
	notes                         []string // printed beside the metrics
}

// tally counts operations and their failures across goroutines.
type tally struct {
	mu                            sync.Mutex
	attempted, failed, mismatched int64
	errs                          []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail counts a failed operation; mismatch marks an output-digest
// mismatch, which makes the run exit non-zero.
func (t *tally) fail(mismatch bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if mismatch {
		t.mismatched++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// demote turns n operations already counted as done into failures: a
// check over the whole pass found them wrong.
func (t *tally) demote(n int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed += n
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// report is the run's outcome: the operation counts, and the
// end-to-end metrics of the untraced passes or, in the traced run, the
// per-layer metrics.
func (t *tally) report(e *env, untraced, traced []*passResult) *report {
	rep := &report{attempted: t.attempted, failed: t.failed, mismatched: t.mismatched, errs: t.errs}
	if e.traced {
		rep.metrics = mergeLayers(untraced, traced)
	} else {
		rep.metrics, rep.notes = endToEndOf(e, untraced)
	}
	return rep
}

// record is ok or fail by err.
func (t *tally) record(err error, mismatch bool) {
	if err != nil {
		t.fail(mismatch, "%v", err)
		return
	}
	t.ok()
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: paper-tables, memory-anecdote, lock-taskq or simd-mix")
		seed     = flag.Int64("seed", defaultSeed, "workload seed")
		seconds  = flag.Int("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "1: the traced run reporting per-layer metrics; 0: end-to-end metrics")
		launchNS = flag.Int64("launch-ns", 0, "wall clock (Unix ns) at which the launcher started this process")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for disk tiers and span files")
		update   = flag.String("update-digests", "", "record this run's output digests in the given digests file instead of checking them")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		workers: runtime.NumCPU(), workdir: *workdir, launch: started, update: *update != ""}
	if *launchNS > 0 {
		e.launch = time.Unix(0, *launchNS)
	}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var err error
	if e.check, err = newDigestCheck(w, e.seed, e.update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.traced {
		e.rec = newRecorder()
	}
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.traced {
		path := filepath.Join(e.workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, e.seed))
		if err := e.rec.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		rep.notes = append(rep.notes, "spans written to "+path)
	}
	if e.update {
		if err := updateDigests(*update, w.name, e.check.seen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return printReport(e, rep)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printReport prints every metric by name and unit, then the result
// line. A failed operation makes the result incorrect; an output-digest
// mismatch also makes the exit status non-zero.
func printReport(e *env, rep *report) int {
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	fmt.Printf("perfbench %s seed=%d seconds=%.0f trace=%v workers=%d\n",
		e.w.name, e.seed, e.seconds.Seconds(), e.traced, e.workers)
	out := map[string]any{}
	for _, d := range defs {
		v := rep.metrics[d.name]
		if e.traced {
			fmt.Printf("  %-34s %14.6g %-6s moves %s on %s\n", d.name, v, d.unit, d.moves, d.on)
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("  %-34s %14.6g %s (%d failed of %d attempted, %d digest mismatches)\n",
		"error_rate", errRate, "ratio", rep.failed, rep.attempted, rep.mismatched)
	sort.Strings(rep.notes)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, msg := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", msg)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.mismatched > 0 {
		return 1
	}
	return 0
}

// passLoop runs passes, numbered from 0, until the run's seconds have
// passed (and at least minPasses of them), and returns them untraced
// and traced. The traced run alternates an untraced and a traced pass,
// so its tracing overhead is measured in one process.
func passLoop(e *env, minPasses int, pass func(i int, rec *recorder) (*passResult, error)) (untraced, traced []*passResult, err error) {
	begin := time.Now()
	e.loopStart = begin
	for i := 0; i < minPasses || time.Since(begin) < e.seconds; i++ {
		p, err := pass(i, nil)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, p)
		if e.rec != nil {
			i++
			p, err := pass(i, e.rec)
			if err != nil {
				return nil, nil, err
			}
			traced = append(traced, p)
		}
	}
	return untraced, traced, nil
}

// ctx is the lifecycle context of a run; the benchmark never cancels
// it, so a stuck layer shows as a run that does not end.
var ctx = context.Background()
