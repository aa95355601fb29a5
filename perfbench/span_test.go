package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "runner.do", Start: 0, End: 100},
		// Two overlapping children: together they cover [10, 50).
		{ID: 2, Parent: 1, Name: "bench.run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "bench.present", Start: 20, End: 50},
		// A grandchild counts against its parent, not the root.
		{ID: 4, Parent: 2, Name: "apps.moldyn.chaos", Start: 12, End: 15},
		// A child running past its parent's end is clipped.
		{ID: 5, Parent: 3, Name: "cache.disk.get", Start: 45, End: 60},
		{ID: 6, Name: "cache.mem.get", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"runner":     60,            // 100 - |[10,50)|
		"bench":      (20 - 3) + 25, // bench.run minus grandchild; present minus [45,50)
		"apps":       3,
		"cache/disk": 15,
		"cache":      10,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestUncoveredShare(t *testing.T) {
	spans := []span{{Start: 0, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 90, End: 150}}
	// [0, 100) is covered on [0,40) ∪ [60,70) ∪ [90,100): 60 of 100.
	if got := uncoveredShare(spans, 0, 100); got < 0.4-1e-12 || got > 0.4+1e-12 {
		t.Errorf("uncoveredShare = %g, want 0.4", got)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var rec *recorder
	sp := rec.begin(0, "scenario.parse", "")
	sp.end()
	if sp.ID() != 0 || rec.add(0, "x", "", time.Now(), time.Now()) != 0 {
		t.Error("nil recorder recorded a span")
	}
}
