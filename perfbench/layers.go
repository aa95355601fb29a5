package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
)

// passResult is one measured pass.
type passResult struct {
	setup, wall, cpu time.Duration
	peakMB           float64 // peak resident set during the pass
	requests         int
	missMS, hitMS    []float64
	gc               map[string]float64 // go.* growth over the pass
	layer            map[string]float64 // per-layer values, traced passes only
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanTotals sums span durations by name.
func spanTotals(spans []span) (n map[string]int, total map[string]time.Duration) {
	n, total = map[string]int{}, map[string]time.Duration{}
	for _, s := range spans {
		n[s.Name]++
		total[s.Name] += time.Duration(s.dur())
	}
	return n, total
}

// layersFromSpans derives the span-based per-layer metrics of one
// traced pass: mean span lengths, the runner's busy ratio over the
// pass, each layer's self time and the share of the pass no span
// covers.
func layersFromSpans(m map[string]float64, rec *recorder, spans []span, workers int, passStart, passEnd time.Time) {
	n, total := spanTotals(spans)
	mean := func(name string, unit time.Duration) float64 {
		if n[name] == 0 {
			return 0
		}
		return float64(total[name]) / float64(n[name]) / float64(unit)
	}
	m["scenario.parse_us"] = mean("scenario.parse", time.Microsecond)
	m["scenario.address_us"] = mean("scenario.address", time.Microsecond)
	m["runner.do_s"] = mean("runner.do", time.Second)
	m["bench.run_s"] = mean("bench.run", time.Second)
	lo, hi := rec.at(passStart), rec.at(passEnd)
	var busy int64
	for _, s := range spans {
		if s.Name == "bench.run" {
			busy += max(0, min(s.End, hi)-max(s.Start, lo))
		}
	}
	m["runner.busy_ratio"] = float64(busy) / float64((hi-lo)*int64(workers))
	for layer, d := range selfTimes(spans) {
		if name, ok := selfLayers[layer]; ok {
			m[name] = d.Seconds()
		}
	}
	m["trace.uncovered_ratio"] = uncoveredShare(spans, lo, hi)
}

// probeResults times the bench codec and renderer from outside on each
// result: PresentResult, EncodeResult and DecodeResult, with the
// encoded size. The decoded result must re-encode to the same bytes.
func probeResults(rec *recorder, t *tally, m map[string]float64, keys []string, reqs []bench.RunRequest, results []*bench.RunResult) {
	var present, encode, decode time.Duration
	var kb float64
	n := 0
	for i, res := range results {
		if res == nil {
			continue
		}
		n++
		var buf bytes.Buffer
		sp := rec.begin(0, "bench.present", keys[i])
		t0 := time.Now()
		err := bench.PresentResult(&buf, reqs[i], res)
		present += time.Since(t0)
		sp.end()
		t.record(err, false)

		sp = rec.begin(0, "bench.encode", keys[i])
		t0 = time.Now()
		payload, err := bench.EncodeResult(res)
		encode += time.Since(t0)
		sp.end()
		if err != nil {
			t.fail(false, "encode %s: %v", keys[i][:12], err)
			continue
		}
		kb += float64(len(payload)) / 1024

		sp = rec.begin(0, "bench.decode", keys[i])
		t0 = time.Now()
		back, err := bench.DecodeResult(payload)
		decode += time.Since(t0)
		sp.end()
		if err == nil {
			var again []byte
			if again, err = bench.EncodeResult(back); err == nil && !bytes.Equal(again, payload) {
				err = fmt.Errorf("decoded result re-encodes differently")
			}
		}
		t.record(maybe(err, "codec %s", keys[i]), err != nil)
	}
	if n == 0 {
		return
	}
	m["bench.present_us"] = present.Seconds() * 1e6 / float64(n)
	m["bench.encode_us"] = encode.Seconds() * 1e6 / float64(n)
	m["bench.decode_us"] = decode.Seconds() * 1e6 / float64(n)
	m["bench.result_kb"] = kb / float64(n)
}

// maybe prefixes a non-nil error with context.
func maybe(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf(format+": %w", append(args, err)...)
}

// memGetRounds is how many times probeMemGet looks up each key: one
// lookup is well under a microsecond, below what a span resolves.
const memGetRounds = 200

// probeMemGet times the memory tier's Get from outside, on keys it
// holds.
func probeMemGet(rec *recorder, m map[string]float64, lru *cache.LRU, keys []cache.Key) {
	if len(keys) == 0 {
		return
	}
	sp := rec.begin(0, "cache.mem.get", "")
	t0 := time.Now()
	for r := 0; r < memGetRounds; r++ {
		for _, k := range keys {
			lru.Get(k)
		}
	}
	d := time.Since(t0)
	sp.end()
	m["cache.mem.get_us"] = d.Seconds() * 1e6 / float64(memGetRounds*len(keys))
}

// into writes a replay's apps.* metrics.
func (s *replayStats) into(m map[string]float64) {
	for k, c := range s.cost {
		m["apps."+k+".host_s"] = c.hostS
		m["apps."+k+".alloc_mb"] = c.allocMB
		m["apps."+k+".msgs"] = c.msgs
	}
	for app, ms := range s.newMS {
		m["apps."+app+".new_ms"] = ms
	}
	m["apps.verify_us"] = s.verifyS * 1e6
}

// mergeLayers reduces the traced run's passes to the per-layer metrics:
// each metric's median over the traced passes, the Go runtime's growth
// over the untraced passes (tracing allocates too), and the tracing
// overhead as traced over untraced pass wall time.
func mergeLayers(untraced, traced []*passResult) map[string]float64 {
	over := func(ps []*passResult, value func(*passResult) float64) float64 {
		var vs []float64
		for _, p := range ps {
			vs = append(vs, value(p))
		}
		return median(vs)
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "go.") {
			m[d.name] = over(untraced, func(p *passResult) float64 { return p.gc[d.name] })
		} else {
			m[d.name] = over(traced, func(p *passResult) float64 { return p.layer[d.name] })
		}
	}
	wall := func(p *passResult) float64 { return p.wall.Seconds() }
	m["trace.overhead_ratio"] = over(traced, wall)/over(untraced, wall) - 1
	return m
}

// endToEndOf reduces the untraced passes to the end-to-end metrics,
// times as measured. Each metric is the median over passes, except a
// percentile with minBeyond samples beyond it in every pass: that one
// is taken over all of the run's samples, a steadier tail than any one
// pass gives. Notes give every percentile's sample counts. setup_s is
// the one-time set-up plus the median pass set-up.
func endToEndOf(e *env, passes []*passResult) (map[string]float64, []string) {
	var setup, wall, cpu, rss, rps []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.peakMB)
		rps = append(rps, float64(p.requests)/p.wall.Seconds())
	}
	m := map[string]float64{
		"setup_s":        e.loopStart.Sub(e.launch).Seconds() + median(setup),
		"wall_s":         median(wall),
		"cpu_s":          median(cpu),
		"peak_rss_mb":    median(rss),
		"throughput_rps": median(rps),
	}
	var notes []string
	for _, q := range []struct {
		name    string
		samples func(*passResult) []float64
		p       float64
	}{
		{"hit_p50_ms", func(p *passResult) []float64 { return p.hitMS }, 0.50},
		{"hit_p99_ms", func(p *passResult) []float64 { return p.hitMS }, 0.99},
		{"miss_p50_ms", func(p *passResult) []float64 { return p.missMS }, 0.50},
		{"miss_p95_ms", func(p *passResult) []float64 { return p.missMS }, 0.95},
	} {
		var pooled, each []float64
		everyValid := true
		for _, p := range passes {
			pq := percentile(q.samples(p), q.p)
			everyValid = everyValid && pq.Valid()
			each = append(each, pq.Value)
			pooled = append(pooled, q.samples(p)...)
		}
		pq := percentile(q.samples(passes[0]), q.p)
		note := fmt.Sprintf("%s: %d samples per pass, %d beyond it", q.name, pq.N, pq.Beyond)
		if everyValid {
			all := percentile(pooled, q.p)
			m[q.name] = all.Value
			note += fmt.Sprintf("; taken over the run's %d, %d beyond it", all.N, all.Beyond)
		} else {
			m[q.name] = median(each)
			note += fmt.Sprintf(" (fewer than %d); the median over %d passes", minBeyond, len(passes))
		}
		notes = append(notes, note)
	}
	return m, notes
}
