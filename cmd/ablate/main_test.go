package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/raceflag"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures")

// goldenSweep renders one CI-size sweep and diffs it against its
// fixture. The determinism core guarantees byte-identical renders, so
// any mismatch is a real change in the numbers.
func goldenSweep(t *testing.T, sweep string, n, procs int) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("golden render skipped under -race (see internal/raceflag)")
	}
	var buf bytes.Buffer
	if err := run(&buf, sweep, n, procs); err != nil {
		t.Fatalf("sweep %s: %v", sweep, err)
	}
	golden.Check(t, buf.Bytes(), "testdata/"+sweep+".golden", *update)
}

func TestGoldenTTableSweep(t *testing.T) {
	goldenSweep(t, "ttable", 256, 4)
}

// TestGoldenMemorySweep checks the §9 memory sweep, which
// scenarios/memory.yaml produces, rendered through the run service's
// stored path against cmd/scenario's fixture, and the sweep's visible
// claims on the same buffer (the sweep runs the anecdote twice, so it
// is not rendered a second time just to grep it).
func TestGoldenMemorySweep(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("golden render skipped under -race (see internal/raceflag)")
	}
	out := string(golden.CheckServiceRender(t, "../../scenarios/memory.yaml", "../scenario/testdata/memory.golden"))
	for _, want := range []string{
		"rejected -> distributed",
		"bit-identical",
		"(paper: 85 MB in 878)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("memory sweep output missing %q", want)
		}
	}
}

func TestUnknownSweepErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nonsense", 64, 2); err == nil {
		t.Fatal("unknown sweep did not error")
	}
}
