package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cache/disk"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/simd"
)

// missesPerPass is how many fresh-seed submissions a pass makes: enough
// that the miss p95 has ten samples beyond it. With hitsPerPass hits
// that is one miss in six requests.
var missesPerPass = minSamplesFor(0.95)

// corpusSeeds are the fixed seeds of the primed app specs; miss seeds
// start at missSeedFloor, above all of them.
var corpusSeeds = []int64{11, 12, 13}

const missSeedFloor = 1000

// verifiedMisses is how many misses per pass, per application, are
// re-run directly through bench.Run after the pass and compared.
const verifiedMisses = 2

// entry is one request the benchmark can send: its body and the
// content address it resolves to.
type entry struct {
	name string
	body []byte
	req  bench.RunRequest
	key  cache.Key
	addr string
}

func newEntry(name string, body []byte) (entry, error) {
	s, err := scenario.Parse(body)
	if err != nil {
		return entry{}, fmt.Errorf("%s: %w", name, err)
	}
	req := s.Request()
	k := req.Key()
	return entry{name: name, body: body, req: req, key: k, addr: k.String()}, nil
}

// primed is a corpus entry after priming: the bytes its status and
// render responses must repeat, and the result for the outside probes.
type primed struct {
	entry
	status, render [sha256.Size]byte
	result         []byte // the result object of the status response
}

// simdMix is the simd-mix workload's fixed inputs.
type simdMix struct {
	corpus    []entry
	templates []specDoc // seedless app specs the misses are made from
}

func loadSimdMix() (*simdMix, error) {
	docs, err := loadDocs("simd-mix")
	if err != nil {
		return nil, err
	}
	sm := &simdMix{}
	for _, d := range docs {
		if !bytes.Contains(d.body, []byte("experiment: app")) {
			en, err := newEntry(d.name, d.body)
			if err != nil {
				return nil, err
			}
			sm.corpus = append(sm.corpus, en)
			continue
		}
		sm.templates = append(sm.templates, d)
		for _, s := range corpusSeeds {
			en, err := newEntry(fmt.Sprintf("%s@%d", d.name, s), withSeed(d.body, s))
			if err != nil {
				return nil, err
			}
			sm.corpus = append(sm.corpus, en)
		}
	}
	return sm, nil
}

// opKind is what one simd-mix request does.
type opKind int

const (
	opResubmit opKind = iota // POST ?wait=1 of a primed spec
	opStatus                 // GET /v1/runs/{addr}
	opRender                 // GET /v1/runs/{addr}/render?view=<experiment>
	opMiss                   // POST ?wait=1 of a never-used seed
)

var opEndpoint = [...]string{"submit", "status", "render", "submit"}

// hitMix is the kinds of one cycle of hits to one corpus entry: eight
// ?wait=1 resubmits to one status and one render GET. No recorded simd
// traffic exists to take the ratio from, so it follows the repository's
// callers: simload, the one load generator, sends only ?wait=1 submits,
// and the CI smoke test and the README walkthrough fetch a status or a
// render once per submitted result.
var hitMix = [...]opKind{
	opResubmit, opResubmit, opResubmit, opResubmit,
	opResubmit, opResubmit, opResubmit, opResubmit,
	opStatus, opRender,
}

type op struct {
	kind   opKind
	target int   // corpus index (hits) or template index (misses)
	e      entry // the miss's request
	verify bool  // re-run this miss directly after the pass
}

// passOps is one pass's seeded request order: hitsPerPass hits in
// hitMix cycles spread evenly over the corpus, and missesPerPass misses
// alternating over the templates, with seeds derived from (seed, pass)
// so no pass and no run of another seed reuses them.
func (sm *simdMix) passOps(seed int64, pass int) ([]op, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(pass)))
	base := missSeedFloor + appSeed(seed, 1<<32+uint64(pass))
	ops := make([]op, 0, hitsPerPass+missesPerPass)
	// Each pass has the same mix of cheap and expensive replies; only
	// the order moves with the seed.
	for i := 0; i < hitsPerPass; i++ {
		ops = append(ops, op{kind: hitMix[i%len(hitMix)], target: i / len(hitMix) % len(sm.corpus)})
	}
	for i := 0; i < missesPerPass; i++ {
		t := i % len(sm.templates)
		d := sm.templates[t]
		en, err := newEntry(d.name, withSeed(d.body, base+int64(i)))
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{kind: opMiss, target: t, e: en, verify: i < verifiedMisses*len(sm.templates)})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// counterValue reads one counter from the process's metrics registry,
// where simd reports coalescing and shedding.
func counterValue(name string) int64 {
	for _, line := range strings.Split(obs.Default().Text(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// service is one pass's simd server on a loopback listener, with a
// memory tier smaller than the corpus and a disk tier in a fresh
// directory.
type service struct {
	srv    *simd.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	mem    *cache.LRU
	disk   *disk.Store
	dir    string
}

// startService starts a service whose disk tier holds a copy of the
// files in from (none when from is empty): a restart over a warm tier.
func startService(e *env, corpusLen int, from string, exec func(*runner.Runner) func(context.Context, bench.RunRequest) (*bench.RunResult, error)) (*service, error) {
	dir, err := os.MkdirTemp(e.workdir, "disk-")
	if err != nil {
		return nil, err
	}
	if from != "" {
		if err := copyFiles(from, dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	s := &service{dir: dir, mem: cache.New(max(1, corpusLen/2)), done: make(chan struct{})}
	if s.disk, err = disk.Open(dir, 0); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r := runner.New(e.workers, nil)
	cfg := simd.Config{Runner: r, Mem: s.mem, Disk: s.disk}
	if exec != nil {
		cfg.Exec = exec(r)
	}
	s.srv = simd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	s.client = &http.Client{Timeout: 2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: e.workers, DisableCompression: true}}
	return s, nil
}

// stop drains the server, closes it, waits for its serve loop to end
// and removes the disk tier.
func (s *service) stop() error {
	c, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := s.srv.Drain(c)
	if serr := s.hs.Shutdown(c); err == nil {
		err = serr
	}
	<-s.done
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// copyFiles copies the regular files of one directory into another.
func copyFiles(from, to string) error {
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// do sends one request and reads the whole reply.
func (s *service) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// request is the method, path and body of one op.
func (sm *simdMix) request(o op, corpus []primed) (method, path string, body []byte) {
	switch o.kind {
	case opResubmit:
		return "POST", "/v1/runs?wait=1", corpus[o.target].body
	case opStatus:
		return "GET", "/v1/runs/" + corpus[o.target].addr, nil
	case opRender:
		p := corpus[o.target]
		return "GET", "/v1/runs/" + p.addr + "/render?view=" + p.req.Experiment, nil
	}
	return "POST", "/v1/runs?wait=1", o.e.body
}

// statusReply is the part of a run status reply the benchmark reads.
type statusReply struct {
	Address string          `json:"address"`
	Status  string          `json:"status"`
	Result  json.RawMessage `json:"result"`
}

// served checks a run reply: 200, done, for the expected address. It
// returns the reply's result object.
func served(code int, body []byte, addr string) (json.RawMessage, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var st statusReply
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	if st.Address != addr || st.Status != "done" {
		return nil, fmt.Errorf("reply for %s is %s/%s", addr[:12], st.Address, st.Status)
	}
	return st.Result, nil
}

// prime runs every corpus request once through a service and keeps
// its disk tier's files in a directory each pass's service starts
// from. It records the bytes later hits must repeat, and each result's
// digest — its render plus its flattened metrics — goes through the
// digest check.
func (sm *simdMix) prime(e *env, t *tally) (corpus []primed, dir string, err error) {
	s, err := startService(e, len(sm.corpus), "", nil)
	if err != nil {
		return nil, "", err
	}
	defer func() {
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil && dir != "" {
			os.RemoveAll(dir)
		}
	}()
	if corpus, err = sm.primeOn(e, s, t); err != nil {
		return nil, "", err
	}
	if dir, err = os.MkdirTemp(e.workdir, "primed-"); err != nil {
		return nil, "", err
	}
	return corpus, dir, copyFiles(s.dir, dir)
}

func (sm *simdMix) primeOn(e *env, s *service, t *tally) ([]primed, error) {
	out := make([]primed, len(sm.corpus))
	for i, en := range sm.corpus {
		code, body, err := s.do("POST", "/v1/runs?wait=1", en.body)
		if err != nil {
			return nil, fmt.Errorf("prime %s: %w", en.name, err)
		}
		raw, err := served(code, body, en.addr)
		if err != nil {
			return nil, fmt.Errorf("prime %s: %w", en.name, err)
		}
		code, text, err := s.do("GET", "/v1/runs/"+en.addr+"/render?view="+en.req.Experiment, nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("prime %s: render: HTTP %d %v", en.name, code, err)
		}
		res, err := bench.DecodeResult(raw)
		if err != nil {
			return nil, fmt.Errorf("prime %s: %w", en.name, err)
		}
		out[i] = primed{entry: en, status: sha256.Sum256(body), render: sha256.Sum256(text), result: raw}
		t.record(e.check.check(en.name, outputDigest(string(text), res.Metrics)), true)
	}
	return out, nil
}

// checkReply is one op's correctness: a hit must repeat the primed reply
// byte for byte; a miss must be answered done for its own address.
// The bool reports a 200 hit whose bytes differ from the primed reply,
// whose digest was checked: an output mismatch.
func checkReply(o op, corpus []primed, code int, body []byte) (error, bool) {
	if o.kind == opMiss {
		_, err := served(code, body, o.e.addr)
		return err, false
	}
	p := corpus[o.target]
	want, what := p.status, "result"
	if o.kind == opRender {
		want, what = p.render, "render"
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s of %s: HTTP %d: %s", opEndpoint[o.kind], p.name, code, bytes.TrimSpace(body)), false
	}
	if sha256.Sum256(body) != want {
		return fmt.Errorf("%s of %s: reply differs from the primed %s", opEndpoint[o.kind], p.name, what), true
	}
	return nil, false
}

// missCheck compares the backend runs a pass executed with the misses it
// issued. Each miss must run exactly once; a miss answered from a cache
// tier (or a hit that re-ran) is a failed operation.
func missCheck(issued, executed int64) (failed int64, err error) {
	if issued == executed {
		return 0, nil
	}
	d := issued - executed
	if d < 0 {
		d = -d
	}
	return d, fmt.Errorf("%d misses issued but %d backend runs executed", issued, executed)
}

// runSimdMix runs the simd-mix workload: the corpus is primed once,
// then each pass starts a fresh service over a copy of the primed disk
// tier and nproc closed-loop clients send the pass's seeded request
// order.
func runSimdMix(e *env) (*report, error) {
	sm, err := loadSimdMix()
	if err != nil {
		return nil, err
	}
	t := &tally{}
	corpus, dir, err := sm.prime(e, t)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	untraced, traced, err := passLoop(e, 3, func(i int, rec *recorder) (*passResult, error) {
		return sm.runPass(e, i, t, rec, corpus, dir)
	})
	if err != nil {
		return nil, err
	}
	return t.report(e, untraced, traced), nil
}

// opResult is one sent op's outcome.
type opResult struct {
	ms   float64
	code int
	body []byte // kept for misses re-run after the pass
}

func (sm *simdMix) runPass(e *env, pass int, t *tally, rec *recorder, corpus []primed, primedDir string) (*passResult, error) {
	p := &passResult{requests: hitsPerPass + missesPerPass}
	mark := 0
	if rec != nil {
		mark = rec.mark()
	}
	setupStart := time.Now()
	ops, err := sm.passOps(e.seed, pass)
	if err != nil {
		return nil, err
	}
	// pending maps a miss's address to its client span, so the server
	// side exec span can name it as its parent.
	var pending sync.Map
	var exec func(*runner.Runner) func(context.Context, bench.RunRequest) (*bench.RunResult, error)
	if rec != nil {
		exec = func(r *runner.Runner) func(context.Context, bench.RunRequest) (*bench.RunResult, error) {
			return func(c context.Context, req bench.RunRequest) (*bench.RunResult, error) {
				key := req.Key().String()
				parent, _ := pending.Load(key)
				id, _ := parent.(int)
				sp := rec.begin(id, "simd.exec", key)
				defer sp.end()
				return runTraced(rec, sp.ID(), key, r.DoUncached, c, req)
			}
		}
	}
	s, err := startService(e, len(corpus), primedDir, exec)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(setupStart)

	executed0 := s.srv.Executed()
	mem0, disk0 := s.mem.Stats(), s.disk.Stats()
	coalesced0, shed0 := counterValue("repro_simd_coalesced_total"), counterValue("repro_simd_shed_total")
	runtime.GC() // as in the CLI passes: start from a collected heap
	resetPeakRSS()
	gc0 := readGC()
	passStart := time.Now()
	cpuStart := cpuTime()
	results := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(ops) {
					return
				}
				o := ops[k]
				method, path, body := sm.request(o, corpus)
				addr := o.e.addr
				if o.kind != opMiss {
					addr = corpus[o.target].addr
				}
				sp := rec.begin(0, "simd."+opEndpoint[o.kind], addr)
				if o.kind == opMiss && rec != nil {
					pending.Store(addr, sp.ID())
				}
				t0 := time.Now()
				code, reply, err := s.do(method, path, body)
				results[k].ms = msSince(t0)
				sp.end()
				results[k].code = code
				mismatch := false
				if err == nil {
					err, mismatch = checkReply(o, corpus, code, reply)
				}
				if o.verify {
					results[k].body = reply
				}
				t.record(err, mismatch)
			}
		}()
	}
	wg.Wait()
	passEnd := time.Now()
	p.wall = passEnd.Sub(passStart)
	p.cpu = cpuTime() - cpuStart
	p.peakMB = peakRSSMB()
	p.gc = readGC().since(gc0)
	executed := s.srv.Executed() - executed0
	if n, err := missCheck(int64(missesPerPass), executed); err != nil {
		t.demote(n, err)
	}
	for k, o := range ops {
		if o.kind == opMiss {
			p.missMS = append(p.missMS, results[k].ms)
		} else {
			p.hitMS = append(p.hitMS, results[k].ms)
		}
	}
	sm.verifyMisses(t, ops, results)
	if rec != nil {
		m := map[string]float64{}
		mem1, disk1 := s.mem.Stats(), s.disk.Stats()
		m["cache.mem.hit_ratio"] = ratio(mem1.Hits-mem0.Hits, mem1.Hits-mem0.Hits+mem1.Misses-mem0.Misses)
		m["cache.disk.hit_ratio"] = ratio(disk1.Hits-disk0.Hits, disk1.Hits-disk0.Hits+disk1.Misses-disk0.Misses)
		m["simd.runs_executed"] = float64(executed)
		m["simd.miss_realized_ratio"] = float64(executed) / float64(missesPerPass)
		m["simd.coalesced"] = float64(counterValue("repro_simd_coalesced_total") - coalesced0)
		m["simd.shed"] = float64(counterValue("repro_simd_shed_total") - shed0)
		sm.layers(e, rec, mark, t, s, m, corpus, ops, results, passStart, passEnd)
		p.layer = m
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	return p, nil
}

// verifyMisses re-runs a few of the pass's misses directly through
// bench.Run and requires the served result's metrics to be the same.
func (sm *simdMix) verifyMisses(t *tally, ops []op, results []opResult) {
	for k, o := range ops {
		if !o.verify || results[k].body == nil {
			continue
		}
		raw, err := served(results[k].code, results[k].body, o.e.addr)
		if err != nil {
			continue // already counted as a failed op
		}
		got, err := bench.DecodeResult(raw)
		if err != nil {
			t.fail(true, "miss %s: %v", o.e.addr[:12], err)
			continue
		}
		want, err := bench.Run(ctx, o.e.req)
		if err != nil {
			t.fail(false, "miss %s: direct run: %v", o.e.addr[:12], err)
			continue
		}
		if metricsText(got.Metrics) != metricsText(want.Metrics) {
			t.fail(true, "miss %s: served metrics differ from a direct bench.Run", o.e.addr[:12])
			continue
		}
		t.ok()
	}
}

// layers measures a traced simd-mix pass's layers: client latency per
// endpoint, the exec seam's spans, and outside probes of the parser,
// codec, renderer and both cache tiers on the pass's corpus, with the
// verified misses replayed through the apps layer.
func (sm *simdMix) layers(e *env, rec *recorder, mark int, t *tally, s *service, m map[string]float64, corpus []primed, ops []op, results []opResult, passStart, passEnd time.Time) {
	byEndpoint := map[string][]float64{}
	for k, o := range ops {
		byEndpoint[opEndpoint[o.kind]] = append(byEndpoint[opEndpoint[o.kind]], results[k].ms)
	}
	m["simd.submit_ms"] = median(byEndpoint["submit"])
	m["simd.status_ms"] = median(byEndpoint["status"])
	m["simd.render_ms"] = median(byEndpoint["render"])
	exec := map[string]float64{}
	var execS []float64
	for _, sp := range rec.since(mark) {
		if sp.Name == "simd.exec" {
			exec[sp.Req] = float64(sp.dur()) / 1e6
			execS = append(execS, float64(sp.dur())/1e9)
		}
	}
	m["simd.exec_s"] = median(execS)
	var overhead []float64
	for k, o := range ops {
		if d, ok := exec[o.e.addr]; ok && o.kind == opMiss {
			overhead = append(overhead, results[k].ms-d)
		}
	}
	m["simd.overhead_ms"] = median(overhead)

	// The parser and addressing, on every distinct body the pass sent
	// except the unverified misses (all alike).
	var sent []entry
	for _, p := range corpus {
		sent = append(sent, p.entry)
	}
	for _, o := range ops {
		if o.verify {
			sent = append(sent, o.e)
		}
	}
	for _, en := range sent {
		sp := rec.begin(0, "scenario.parse", en.addr)
		spec, err := scenario.Parse(en.body)
		sp.end()
		if err != nil {
			t.fail(false, "parse %s: %v", en.name, err)
			continue
		}
		sp = rec.begin(0, "scenario.address", en.addr)
		if k := spec.Request().Key(); k != en.key {
			t.fail(true, "%s: address moved from %s to %s", en.name, en.addr[:12], k.String()[:12])
		}
		sp.end()
	}

	keys := make([]string, len(corpus))
	ckeys := make([]cache.Key, len(corpus))
	reqs := make([]bench.RunRequest, len(corpus))
	res := make([]*bench.RunResult, len(corpus))
	for i, p := range corpus {
		keys[i], ckeys[i], reqs[i] = p.addr, p.key, p.req
		r, err := bench.DecodeResult(p.result)
		if err != nil {
			t.fail(true, "decode %s: %v", p.name, err)
			continue
		}
		res[i] = r
	}
	probeResults(rec, t, m, keys, reqs, res)
	probeMemGet(rec, m, s.mem, ckeys)
	m["cache.disk.get_us"], m["cache.disk.put_us"] = probeDisk(rec, t, s, corpus, e.workdir)
	var corrupt int
	for _, o := range ops {
		if o.kind == opMiss {
			if _, _, ok := s.disk.Get(o.e.key); !ok {
				corrupt++
			}
		}
	}
	m["cache.disk.corrupt"] = float64(corrupt)

	rs := newReplayStats()
	for k, o := range ops {
		if !o.verify {
			continue
		}
		raw, err := served(results[k].code, results[k].body, o.e.addr)
		if err != nil {
			continue // already counted as a failed op
		}
		res, err := bench.DecodeResult(raw)
		if err == nil {
			err = replay(rec, rs, o.e.addr, o.e.req, res)
		}
		t.record(maybe(err, "replay %s", o.e.addr[:12]), err != nil)
	}
	rs.into(m)
	layersFromSpans(m, rec, rec.since(mark), e.workers, passStart, passEnd)
}

// probeDisk times the disk tier's Get on every corpus entry (all of
// which it holds) and Put of the same entries into a fresh store.
func probeDisk(rec *recorder, t *tally, s *service, corpus []primed, workdir string) (getUS, putUS float64) {
	var get, put time.Duration
	for _, p := range corpus {
		sp := rec.begin(0, "cache.disk.get", p.addr)
		t0 := time.Now()
		_, _, ok := s.disk.Get(p.key)
		get += time.Since(t0)
		sp.end()
		if !ok {
			t.fail(false, "disk tier lost %s", p.name)
		}
	}
	dir, err := os.MkdirTemp(workdir, "put-")
	if err != nil {
		t.fail(false, "disk put probe: %v", err)
		return get.Seconds() * 1e6 / float64(len(corpus)), 0
	}
	defer os.RemoveAll(dir)
	st, err := disk.Open(dir, 0)
	if err != nil {
		t.fail(false, "disk put probe: %v", err)
		return get.Seconds() * 1e6 / float64(len(corpus)), 0
	}
	for _, p := range corpus {
		sp := rec.begin(0, "cache.disk.put", p.addr)
		t0 := time.Now()
		_, err := st.Put(p.req.Canonical(), p.result)
		put += time.Since(t0)
		sp.end()
		t.record(maybe(err, "disk put %s", p.name), false)
	}
	n := float64(len(corpus))
	return get.Seconds() * 1e6 / n, put.Seconds() * 1e6 / n
}
