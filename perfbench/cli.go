package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"path"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/runner"
	"repro/internal/scenario"
)

//go:embed specs
var specFS embed.FS

// specDoc is one spec document the benchmark owns.
type specDoc struct {
	name string
	body []byte
}

// loadDocs reads a workload's spec documents, in name order.
func loadDocs(dir string) ([]specDoc, error) {
	ents, err := specFS.ReadDir(path.Join("specs", dir))
	if err != nil {
		return nil, err
	}
	var docs []specDoc
	for _, ent := range ents {
		b, err := specFS.ReadFile(path.Join("specs", dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		docs = append(docs, specDoc{name: strings.TrimSuffix(ent.Name(), ".yaml"), body: b})
	}
	return docs, nil
}

// mix is splitmix64's finalizer: the benchmark's seed derivation.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// appSeed derives a positive application seed below 2^30 (exact in the
// spec decoder's float64 numbers) from the benchmark seed and a stream.
func appSeed(seed int64, stream uint64) int64 {
	return 1 + int64(mix(uint64(seed)*0x100000001b3^mix(stream))>>34)
}

// withSeed appends a seed line to a seedless app spec document.
func withSeed(doc []byte, seed int64) []byte {
	return append(append([]byte(nil), doc...), fmt.Sprintf("seed: %d\n", seed)...)
}

// cliDocs are the spec documents one CLI pass submits: the workload's
// own, with a seed derived from the benchmark seed appended to each spec
// of a workload whose outputs follow the seed, unless it pins its own.
func cliDocs(e *env) ([]specDoc, error) {
	docs, err := loadDocs(e.w.name)
	if err != nil {
		return nil, err
	}
	if e.w.seededOutputs {
		for i, d := range docs {
			if !bytes.Contains(d.body, []byte("\nseed:")) {
				docs[i].body = withSeed(d.body, appSeed(e.seed, uint64(i)))
			}
		}
	}
	return docs, nil
}

// hitsPerPass is how many cache hits a simd-mix pass times: enough
// that the hit p99 has ten samples beyond it. A CLI hit costs tens of
// microseconds, so a CLI pass times sixteen times as many: its hit
// phase then spans long enough for a steady p50 and p99.
var (
	hitsPerPass    = minSamplesFor(0.99)
	cliHitsPerPass = 16 * hitsPerPass
)

// admitCtx observes a request's way through a runner, which has no
// hooks of its own. The runner waits for a pool slot in a select on
// ctx.Done(), so the first Done() call means the request has joined
// the slot queue; it then calls bench.Run, whose first act is its entry
// ctx.Err() check, so the first Err() is the start of the run.
type admitCtx struct {
	context.Context
	enter, admit sync.Once
	queued       chan struct{} // closed at the first Done()
	at           time.Time     // set at the first Err()
}

func newAdmitCtx(c context.Context) *admitCtx {
	return &admitCtx{Context: c, queued: make(chan struct{})}
}

func (c *admitCtx) Done() <-chan struct{} {
	c.enter.Do(func() { close(c.queued) })
	return c.Context.Done()
}

func (c *admitCtx) Err() error {
	c.admit.Do(func() { c.at = time.Now() })
	return c.Context.Err()
}

// queueWait bounds how long a pass waits for one request to join the
// runner's queue before submitting the next anyway.
const queueWait = 20 * time.Millisecond

// runTraced calls a runner method and records it as a runner.do span
// with the bench.run span it contains.
func runTraced(rec *recorder, parent int, key string, do func(context.Context, bench.RunRequest) (*bench.RunResult, error), c context.Context, req bench.RunRequest) (*bench.RunResult, error) {
	sp := rec.begin(parent, "runner.do", key)
	ac, ok := c.(*admitCtx)
	if !ok {
		ac = newAdmitCtx(c)
	}
	res, err := do(ac, req)
	end := time.Now()
	sp.end()
	if !ac.at.IsZero() {
		rec.add(sp.ID(), "bench.run", key, ac.at, end)
	}
	return res, err
}

// runCLI runs a CLI workload: each pass parses the workload's spec
// documents, submits them together to a fresh runner (nproc workers,
// cold cache) through scenario.RunCtx, and then times cliHitsPerPass
// re-submissions the runner answers from its cache.
func runCLI(e *env) (*report, error) {
	docs, err := cliDocs(e)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	untraced, traced, err := passLoop(e, 3, func(_ int, rec *recorder) (*passResult, error) {
		return runCLIPass(e, docs, t, rec)
	})
	if err != nil {
		return nil, err
	}
	return t.report(e, untraced, traced), nil
}

// runCLIPass is one pass. Untraced, each request is one
// scenario.RunCtx. Traced, the benchmark makes the calls RunCtx is
// built from itself — Spec.Request and Key, then runner.Do — so each
// gets a span, and then calls RunCtx, which the runner's cache answers,
// for the scenario layer's own render-and-assert work.
func runCLIPass(e *env, docs []specDoc, t *tally, rec *recorder) (*passResult, error) {
	p := &passResult{requests: len(docs)}
	mark := 0
	if rec != nil {
		mark = rec.mark()
	}
	setupStart := time.Now()
	specs := make([]*scenario.Spec, len(docs))
	for i, d := range docs {
		sp := rec.begin(0, "scenario.parse", "")
		s, err := scenario.Parse(d.body)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		specs[i] = s
	}
	lru := cache.New(len(specs))
	r := runner.New(e.workers, lru)
	p.setup = time.Since(setupStart)

	// Each measured phase starts from a collected heap, so garbage an
	// earlier phase left does not land in its numbers at random.
	runtime.GC()
	resetPeakRSS()
	gc0 := readGC()
	passStart := time.Now()
	cpuStart := cpuTime()
	outs := make([]*scenario.Outcome, len(specs))
	keys := make([]string, len(specs))
	reqs := make([]bench.RunRequest, len(specs))
	results := make([]*bench.RunResult, len(specs))
	lat := make([]float64, len(specs))
	errs := make([]error, len(specs))
	// Requests are submitted together, as `scenario run -j` does, but
	// each joins the runner's queue before the next is submitted, so
	// the runner admits them in spec order on every pass.
	var wg sync.WaitGroup
	for i, s := range specs {
		ac := newAdmitCtx(ctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			if rec == nil {
				outs[i], errs[i] = scenario.RunCtx(ac, r, s)
				lat[i] = msSince(t0)
				return
			}
			sp := rec.begin(0, "scenario.address", "")
			reqs[i] = s.Request()
			key := reqs[i].Key().String()
			sp.endAs(key)
			keys[i] = key
			results[i], errs[i] = runTraced(rec, 0, key, r.Do, ac, reqs[i])
			if errs[i] != nil {
				return
			}
			sp = rec.begin(0, "scenario.run", key)
			outs[i], errs[i] = scenario.RunCtx(ctx, r, s)
			sp.end()
			lat[i] = msSince(t0)
		}()
		select {
		case <-ac.queued:
		case <-time.After(queueWait):
		}
	}
	wg.Wait()
	passEnd := time.Now()
	p.wall = passEnd.Sub(passStart)
	p.cpu = cpuTime() - cpuStart
	p.peakMB = peakRSSMB()
	p.gc = readGC().since(gc0)
	p.missMS = lat
	for i, o := range outs {
		t.record(checkOutcome(e, docs[i].name, o, errs[i]))
	}

	// The hit phase: nproc clients re-submit the pass's specs, which
	// the runner's cache now answers.
	runtime.GC()
	hitMS := make([]float64, cliHitsPerPass)
	var next atomic.Int64
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= cliHitsPerPass {
					return
				}
				i := k % len(specs)
				sp := rec.begin(0, "scenario.run", keys[i])
				t0 := time.Now()
				o, err := scenario.RunCtx(ctx, r, specs[i])
				hitMS[k] = msSince(t0)
				sp.end()
				t.record(checkOutcome(e, docs[i].name, o, err))
			}
		}()
	}
	wg.Wait()
	p.hitMS = hitMS
	if rec != nil {
		p.layer = cliLayers(e, rec, mark, t, lru, keys, reqs, results, passStart, passEnd)
	}
	return p, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// checkOutcome is one request's correctness: it ran, landed inside its
// assertion bands, and its output digest is the expected one.
func checkOutcome(e *env, name string, o *scenario.Outcome, err error) (error, bool) {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err), false
	}
	if len(o.Violations) > 0 {
		return fmt.Errorf("%s: %s", name, o.Violations[0]), false
	}
	if err := e.check.check(name, outputDigest(o.Rendered, o.Metrics)); err != nil {
		return err, true
	}
	return nil, false
}

// cliLayers measures a traced CLI pass's layers: the span-derived
// numbers, outside probes of the codec, renderer and memory tier on
// the pass's results, and the serial application replay of every
// request, whose metrics must equal the request's.
func cliLayers(e *env, rec *recorder, mark int, t *tally, lru *cache.LRU, keys []string, reqs []bench.RunRequest, results []*bench.RunResult, passStart, passEnd time.Time) map[string]float64 {
	m := map[string]float64{}
	st := lru.Stats()
	m["cache.mem.hit_ratio"] = ratio(st.Hits, st.Hits+st.Misses)
	probeResults(rec, t, m, keys, reqs, results)
	var cached []cache.Key
	for i, res := range results {
		if res != nil {
			cached = append(cached, reqs[i].Key())
		}
	}
	probeMemGet(rec, m, lru, cached)
	rs := newReplayStats()
	for i, res := range results {
		if res == nil {
			continue
		}
		var err error
		if reqs[i].Experiment == "memory" {
			var d time.Duration
			d, err = replayAnecdote(rec, rs, keys[i], res)
			m["bench.anecdote_s"] += d.Seconds()
		} else {
			err = replay(rec, rs, keys[i], reqs[i], res)
		}
		t.record(maybe(err, "replay %s", keys[i][:12]), err != nil)
	}
	rs.into(m)
	layersFromSpans(m, rec, rec.since(mark), e.workers, passStart, passEnd)
	return m
}
