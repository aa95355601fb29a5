package main

import (
	"math"
	"testing"
)

func TestDigestCatchesOneULP(t *testing.T) {
	metrics := map[string]float64{"moldyn/4 procs/chaos/time_s": 0.0287, "moldyn/4 procs/seq/speedup": 1}
	want := outputDigest("table text\n", metrics)
	bumped := map[string]float64{}
	for k, v := range metrics {
		bumped[k] = v
	}
	bumped["moldyn/4 procs/chaos/time_s"] = math.Nextafter(0.0287, 1)
	got := outputDigest("table text\n", bumped)
	if got == want {
		t.Fatal("a one-ULP metric change left the digest unchanged")
	}

	committed := &digestCheck{expected: map[string]string{"latency": want}, seen: map[string]string{}}
	if err := committed.check("latency", want); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	if err := committed.check("latency", got); err == nil {
		t.Error("digest check passed a one-ULP change against the committed digest")
	}
	if err := committed.check("straggler", want); err == nil {
		t.Error("digest check passed a request with no committed digest")
	}

	// Without committed digests (a seeded workload at another seed),
	// every pass must repeat the first.
	acrossPasses := &digestCheck{seen: map[string]string{}}
	if err := acrossPasses.check("taskq", want); err != nil {
		t.Fatalf("first pass rejected: %v", err)
	}
	if err := acrossPasses.check("taskq", got); err == nil {
		t.Error("digest check passed a one-ULP change across passes")
	}
}

func TestCommittedDigestsCoverEveryRequest(t *testing.T) {
	for _, w := range workloads {
		c, err := newDigestCheck(w, defaultSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		if w.name == "simd-mix" {
			sm, err := loadSimdMix()
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range sm.corpus {
				names = append(names, en.name)
			}
		} else {
			docs, err := cliDocs(&env{w: w, seed: defaultSeed})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				names = append(names, d.name)
			}
		}
		for _, n := range names {
			if _, ok := c.expected[n]; !ok {
				t.Errorf("%s: no committed digest for %s", w.name, n)
			}
		}
		if len(c.expected) != len(names) {
			t.Errorf("%s: %d committed digests for %d requests", w.name, len(c.expected), len(names))
		}
	}
}
