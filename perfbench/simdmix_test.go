package main

import (
	"context"
	"crypto/sha256"
	"net/http"
	"testing"

	"repro/internal/bench"
	"repro/internal/runner"
)

// TestMissCheckCatchesCachedMiss sends a fresh-seed spec twice to a
// service whose backend is a stub: the first submission executes, the
// second is answered from the cache, and the miss check must count it
// as failed.
func TestMissCheckCatchesCachedMiss(t *testing.T) {
	e := &env{workers: 1, workdir: t.TempDir()}
	stub := func(*runner.Runner) func(context.Context, bench.RunRequest) (*bench.RunResult, error) {
		return func(_ context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			return &bench.RunResult{Experiment: req.Experiment, Metrics: map[string]float64{"x": 1}}, nil
		}
	}
	s, err := startService(e, 2, "", stub)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	sm, err := loadSimdMix()
	if err != nil {
		t.Fatal(err)
	}
	miss, err := newEntry("taskq", withSeed(sm.templates[0].body, missSeedFloor+7))
	if err != nil {
		t.Fatal(err)
	}
	submit := func() int64 {
		before := s.srv.Executed()
		code, body, err := s.do("POST", "/v1/runs?wait=1", miss.body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := served(code, body, miss.addr); err != nil {
			t.Fatal(err)
		}
		return s.srv.Executed() - before
	}
	if failed, err := missCheck(1, submit()); failed != 0 || err != nil {
		t.Errorf("a miss that executed failed the check: %d, %v", failed, err)
	}
	if failed, err := missCheck(1, submit()); failed != 1 || err == nil {
		t.Errorf("a miss served from the cache passed the check: %d, %v", failed, err)
	}
}

func TestMissSeedsAreFreshPerPass(t *testing.T) {
	sm, err := loadSimdMix()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, en := range sm.corpus {
		seen[en.addr] = true
	}
	for _, seed := range []int64{1, 2} {
		for pass := 0; pass < 3; pass++ {
			ops, err := sm.passOps(seed, pass)
			if err != nil {
				t.Fatal(err)
			}
			misses := 0
			for _, o := range ops {
				if o.kind != opMiss {
					continue
				}
				misses++
				if seen[o.e.addr] {
					t.Fatalf("seed %d pass %d reuses address %s", seed, pass, o.e.addr[:12])
				}
				seen[o.e.addr] = true
			}
			if misses != missesPerPass || len(ops) != hitsPerPass+missesPerPass {
				t.Errorf("pass has %d misses of %d ops", misses, len(ops))
			}
		}
	}
}

// TestHitReplyDifferenceIsMismatch: a hit answered 200 with bytes other
// than the primed (digest-checked) reply is an output mismatch, which
// makes the run exit non-zero; a non-200 reply is a plain failure.
func TestHitReplyDifferenceIsMismatch(t *testing.T) {
	corpus := []primed{{entry: entry{name: "t"}, status: sha256.Sum256([]byte("s")), render: sha256.Sum256([]byte("r"))}}
	for _, c := range []struct {
		kind     opKind
		code     int
		body     string
		mismatch bool
		fails    bool
	}{
		{opResubmit, http.StatusOK, "s", false, false},
		{opStatus, http.StatusOK, "s", false, false},
		{opRender, http.StatusOK, "r", false, false},
		{opResubmit, http.StatusOK, "s2", true, true},
		{opStatus, http.StatusOK, "r", true, true},
		{opRender, http.StatusOK, "s", true, true},
		{opStatus, http.StatusTooManyRequests, "s", false, true},
	} {
		err, mismatch := checkReply(op{kind: c.kind}, corpus, c.code, []byte(c.body))
		if mismatch != c.mismatch || (err != nil) != c.fails {
			t.Errorf("%s %d %q: mismatch %v, err %v", opEndpoint[c.kind], c.code, c.body, mismatch, err)
		}
	}
}
