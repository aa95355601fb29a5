package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestCanonicalEncodingStable checks structurally-equal requests built
// by different code paths share one encoding and one key, and that the
// encoding carries the version header.
func TestCanonicalEncodingStable(t *testing.T) {
	a := Table1Request(Table1Params{N: 512, Procs: 8, Steps: 10})
	b := Table1Request(Table1Params{N: 512, Procs: 8, Steps: 10})
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Errorf("equal requests encode differently:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
	if a.Key() != b.Key() {
		t.Error("equal requests have different keys")
	}
	if !strings.HasPrefix(string(a.Canonical()), "runrequest/v1\n") {
		t.Errorf("encoding missing version header:\n%s", a.Canonical())
	}
}

// TestCanonicalEncodingDiverges checks every semantic field moves the
// content address.
func TestCanonicalEncodingDiverges(t *testing.T) {
	base := Table1Request(Table1Params{N: 512, Procs: 8, Steps: 10})
	variants := map[string]RunRequest{
		"different param": Table1Request(Table1Params{N: 1024, Procs: 8, Steps: 10}),
		"different table": Table2Request(Table2Params{Scale: 2, Procs: 8, Steps: 4, Partners: 40}),
		"budget axis":     MemoryRequest(MemorySweepParams{N: 512, Procs: 8}, []int{48, 16}),
		"app run":         {Experiment: "app", App: "moldyn", N: 512, Procs: []int{8}},
	}
	for name, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("%s shares the base request's key", name)
		}
	}
}

// TestRunRejectsUnknownVersion checks the version gate fails loudly.
func TestRunRejectsUnknownVersion(t *testing.T) {
	req := Table1Request(Table1Params{N: 64, Procs: 2, Steps: 2})
	req.Version = 3
	_, err := Run(context.Background(), req)
	if err == nil {
		t.Fatal("Run accepted version 3")
	}
	want := "bench: unsupported request version 3 (supported: 1, 2)"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// TestRunCanceledContext checks cancellation aborts before any
// simulation work.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Table1Request(Table1Params{N: 64, Procs: 2, Steps: 2})); err != context.Canceled {
		t.Errorf("Run on canceled context = %v, want context.Canceled", err)
	}
}
