package moldyn

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// The option matrix: every backend variant must still produce the exact
// sequential result.

func TestTableKindsProduceSameResults(t *testing.T) {
	base := testParams(256, 4, 4, 2)
	var ref *apps.Result
	for _, kind := range []chaos.TableKind{chaos.Replicated, chaos.Distributed, chaos.Paged} {
		p := base
		p.TableKind = kind
		r := RunChaos(Generate(p))
		if ref == nil {
			ref = r
			continue
		}
		if err := apps.VerifyEqual(ref, r); err != nil {
			t.Fatalf("table kind %v changed results: %v", kind, err)
		}
	}
}

func TestIncrementalOptionAgreement(t *testing.T) {
	p := testParams(256, 4, 6, 2)
	w := Generate(p)
	seq := RunSequential(w)
	r := RunTmk(w, TmkOptions{Optimized: true, Incremental: true})
	if err := apps.VerifyEqual(seq, r); err != nil {
		t.Fatalf("incremental: %v", err)
	}
}

func TestNoAggregationAgreement(t *testing.T) {
	p := testParams(256, 4, 4, 2)
	w := Generate(p)
	seq := RunSequential(w)
	noAgg := RunTmk(w, TmkOptions{Optimized: true, NoAggregation: true})
	if err := apps.VerifyEqual(seq, noAgg); err != nil {
		t.Fatalf("no-aggregation: %v", err)
	}
	agg := RunTmk(w, TmkOptions{Optimized: true})
	if agg.Messages > noAgg.Messages {
		t.Errorf("aggregation increased messages: %d vs %d", agg.Messages, noAgg.Messages)
	}
}

func TestNoWriteAllAgreement(t *testing.T) {
	p := testParams(256, 4, 4, 0)
	w := Generate(p)
	seq := RunSequential(w)
	r := RunTmk(w, TmkOptions{Optimized: true, NoWriteAll: true})
	if err := apps.VerifyEqual(seq, r); err != nil {
		t.Fatalf("no-writeall: %v", err)
	}
}

func TestTwoProcsMinimal(t *testing.T) {
	runAll(t, testParams(128, 2, 3, 2))
}

func TestSixteenProcs(t *testing.T) {
	runAll(t, testParams(512, 16, 3, 2))
}

func TestGCEnabledAgreement(t *testing.T) {
	// Force frequent GC during a full moldyn run; results must be exact.
	p := testParams(256, 4, 6, 2)
	w := Generate(p)
	seq := RunSequential(w)

	r := RunTmk(w, TmkOptions{Optimized: true, GCThresholdBytes: 1024})
	if err := apps.VerifyEqual(seq, r); err != nil {
		t.Fatalf("with GC: %v", err)
	}
}
