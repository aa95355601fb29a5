package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
		valid  bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{200, 0.95, 190, 10, true},
		{199, 0.95, 190, 9, false},
		{7, 0.95, 7, 0, false},
		{1, 0.50, 1, 0, false},
		{1000, 0.50, 500, 500, true},
	} {
		q := percentile(seq(c.n), c.p)
		if q.Value != c.value || q.Beyond != c.beyond || q.N != c.n || q.Valid() != c.valid {
			t.Errorf("percentile(%d samples, %g) = %+v valid=%v, want value %g, %d beyond, valid=%v",
				c.n, c.p, q, q.Valid(), c.value, c.beyond, c.valid)
		}
	}
	if got := minSamplesFor(0.99); got != 1000 {
		t.Errorf("minSamplesFor(0.99) = %d, want 1000", got)
	}
	if got := minSamplesFor(0.95); got != 200 {
		t.Errorf("minSamplesFor(0.95) = %d, want 200", got)
	}
}

func TestEndToEndReportsSampleCounts(t *testing.T) {
	e := &env{launch: started, loopStart: started}
	passes := []*passResult{{wall: time.Second, requests: 7, hitMS: seq(hitsPerPass), missMS: seq(7)}}
	m, notes := endToEndOf(e, passes)
	if m["hit_p99_ms"] != 990 {
		t.Errorf("hit_p99_ms = %g, want 990", m["hit_p99_ms"])
	}
	text := strings.Join(notes, "\n")
	for _, want := range []string{
		"hit_p99_ms: 1000 samples per pass, 10 beyond it; taken over the run's 1000, 10 beyond it\n",
		"miss_p95_ms: 7 samples per pass, 0 beyond it (fewer than 10); the median over 1 passes",
	} {
		if !strings.Contains(text+"\n", want) {
			t.Errorf("notes lack %q:\n%s", want, text)
		}
	}
}
