// Example: irregular sparse matrix-vector product as a first-class
// registered application — a thin wrapper over internal/apps/spmv,
// which provides the workload generator and all four backends
// (sequential, CHAOS, base TreadMarks, Validate-optimized TreadMarks).
// The full four-system table is scenarios/table3.yaml (run it with
// `go run ./cmd/scenario run`); this example contrasts just
// the two TreadMarks variants, like the original standalone demo.
//
// Unlike the original demo, the package backends run one extra untimed
// warmup sweep and exclude it (cold paging included) from the reported
// time and traffic, matching how the other apps measure.
//
//	go run ./examples/spmv [-n 16384] [-nnz 24] [-procs 8] [-steps 12]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/apps/spmv"
)

func main() {
	n := flag.Int("n", 16384, "matrix dimension")
	nnzRow := flag.Int("nnz", 24, "nonzeros per row")
	procs := flag.Int("procs", 8, "processors")
	steps := flag.Int("steps", 12, "timed sweeps (one untimed warmup sweep runs first)")
	flag.Parse()

	p := spmv.DefaultParams(*n, *procs)
	p.NNZRow = *nnzRow
	p.Steps = *steps
	w := spmv.Generate(p)

	base := spmv.RunTmk(w, spmv.TmkOptions{})
	opt := spmv.RunTmk(w, spmv.TmkOptions{Optimized: true})
	if err := apps.VerifyEqual(base, opt); err != nil {
		fmt.Fprintln(os.Stderr, "VERIFICATION FAILED:", err)
		os.Exit(1)
	}

	fmt.Printf("%s  final state identical across variants\n\n", w)
	fmt.Printf("%-16s %10s %10s %10s\n", "variant", "time (s)", "messages", "data (MB)")
	fmt.Printf("%-16s %10.3f %10d %10.2f\n", "demand paging", base.TimeSec, base.Messages, base.DataMB)
	fmt.Printf("%-16s %10.3f %10d %10.2f\n", "validate", opt.TimeSec, opt.Messages, opt.DataMB)
	fmt.Printf("\nValidate: %.1fx fewer messages, %.2fx faster\n",
		float64(base.Messages)/float64(opt.Messages), base.TimeSec/opt.TimeSec)
}
