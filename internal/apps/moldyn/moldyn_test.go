package moldyn

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// testParams returns a small but non-trivial configuration: enough
// molecules for several pages of x and forces, several rebuilds, and a
// multi-page interaction list.
func testParams(n, procs, steps, update int) Params {
	p := DefaultParams(n, procs)
	p.Steps = steps
	p.UpdateEvery = update
	p.Cutoff = 4.0
	p.PageSize = 1024
	return p
}

func TestWorkloadDeterministic(t *testing.T) {
	a := Generate(testParams(256, 4, 4, 2))
	b := Generate(testParams(256, 4, 4, 2))
	for i := range a.X0 {
		if a.X0[i] != b.X0[i] || a.Drift[i] != b.Drift[i] {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestPositionsOnLattice(t *testing.T) {
	w := Generate(testParams(128, 2, 2, 0))
	for i, v := range w.X0 {
		if apps.Q(v) != v {
			t.Fatalf("X0[%d]=%v not on lattice", i, v)
		}
		if v < 0 || v >= w.L {
			t.Fatalf("X0[%d]=%v outside box %v", i, v, w.L)
		}
	}
}

// brutePairs is the paper-era exhaustive scan, the oracle for the
// cell-grid builder: every candidate (i, j>i) of the strided rows is
// checked and counted.
func brutePairs(p *Params, l float64, x []float64, mod, eq int) (pairs [][2]int32, checks int64) {
	rc2 := p.Cutoff * p.Cutoff
	for i := eq; i < p.N; i += mod {
		for j := i + 1; j < p.N; j++ {
			checks++
			dx := apps.MinImage(x[3*i]-x[3*j], l)
			dy := apps.MinImage(x[3*i+1]-x[3*j+1], l)
			dz := apps.MinImage(x[3*i+2]-x[3*j+2], l)
			if dx*dx+dy*dy+dz*dz <= rc2 {
				pairs = append(pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return pairs, checks
}

// TestPairGridMatchesBruteForce holds the cell-grid builder to the
// exhaustive scan: the same pairs in the same order and the same charged
// check count, on the grid path (CutoffFrac 0.2209) and the exhaustive
// fallback (0.457), with molecules planted on cell boundaries, at the
// box edges, and exactly at the cutoff.
func TestPairGridMatchesBruteForce(t *testing.T) {
	strides := [][2]int{{1, 0}, {3, 1}, {8, 0}, {8, 7}}
	for _, frac := range []float64{0.2209, 0.457} {
		for seed := int64(1); seed <= 20; seed++ {
			p := DefaultParams(700+13*int(seed), 8)
			p.CutoffFrac = frac
			p.Seed = seed
			w := Generate(p)
			n, l := w.P.N, w.L
			// A lattice cutoff of 5u puts (3u, 4u, 0) exactly on it.
			u := apps.Q(w.P.Cutoff / 5)
			rc := 5 * u
			w.P.Cutoff = rc
			m := int(min(2*l/(rc*(1+1e-9)), cubeSide(float64(n))))
			if grid := m >= 5; grid != (frac < 0.3) {
				t.Fatalf("frac %v: %d cells a side, grid path = %v", frac, m, grid)
			}
			g := 1.0 / apps.Grid
			pts := [][3]float64{{0, 0, 0}, {l - g, l - g, l - g}, {0, l - g, 0}}
			var atCutoff [][2]int // planted pairs exactly rc apart
			for k := 1; k < max(m, 2); k++ {
				b := apps.Q(float64(k) * l / float64(m))
				atCutoff = append(atCutoff, [2]int{len(pts) + 2, len(pts) + 3}, [2]int{len(pts) + 4, len(pts) + 5})
				pts = append(pts,
					[3]float64{b, b, b}, [3]float64{b - g, b, b - g},
					[3]float64{b - u, b, b}, [3]float64{b + 2*u, b + 4*u, b},
					[3]float64{b, 0, l - g}, [3]float64{b + rc, 0, l - g},
					[3]float64{b, g, g}, [3]float64{b + rc + g, g, g}, // just beyond
				)
			}
			stride := n / len(pts)
			for k, pt := range pts {
				for d := range pt {
					w.X0[3*k*stride+d] = apps.Wrap(pt[d], l)
				}
			}
			for _, s := range strides {
				want, wantChecks := brutePairs(&w.P, l, w.X0, s[0], s[1])
				got, gotChecks := BuildPairsStrided(&w.P, l, w.X0, s[0], s[1])
				if gotChecks != wantChecks {
					t.Fatalf("frac %v seed %d stride %v: checks %d, brute force %d", frac, seed, s, gotChecks, wantChecks)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("frac %v seed %d stride %v: %d pairs differ from brute force's %d", frac, seed, s, len(got), len(want))
				}
			}
			all, _ := BuildPairs(&w.P, l, w.X0)
			// The initial-build path: RCB owner rows, one section per
			// processor. Concatenated, they are the brute-force list
			// stably bucketed by owner (the old sort-then-partition).
			for _, np := range []int{1, 3, 8} {
				part := chaos.RCB(Coords(w.X0), np)
				full, _ := brutePairs(&w.P, l, w.X0, 1, 0)
				var want, got [][2]int32
				for o, rows := range ownerSections(part) {
					for _, pr := range full {
						if part.Owner[pr[0]] == o {
							want = append(want, pr)
						}
					}
					got = BuildPairsRows(got, &w.P, l, w.X0, rows)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("frac %v seed %d procs %d: owner sections (%d pairs) differ from bucketed brute force (%d)", frac, seed, np, len(got), len(want))
				}
			}
			for _, pr := range atCutoff {
				if _, ok := slices.BinarySearchFunc(all, [2]int32{int32(pr[0] * stride), int32(pr[1] * stride)}, comparePairs); !ok {
					t.Fatalf("frac %v seed %d: planted pair %v at the cutoff missing", frac, seed, pr)
				}
			}
		}
	}
}

func comparePairs(a, b [2]int32) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

func TestPairsSymmetricIandJ(t *testing.T) {
	p := testParams(200, 2, 1, 0)
	w := Generate(p)
	pairs, _ := BuildPairs(&p, w.L, w.X0)
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Fatalf("pair %v not ordered i<j", pr)
		}
	}
}

// TestPartitionPairsSectionsAreContiguous checks the almost-owner-
// computes layout both backends start from: each processor's section,
// built from its owner rows, holds only pairs it owns, and together the
// sections hold every pair of the interaction list.
func TestPartitionPairsSectionsAreContiguous(t *testing.T) {
	p := testParams(256, 4, 1, 0)
	w := Generate(p)
	pairs, _ := BuildPairs(&p, w.L, w.X0)
	part := chaos.RCB(Coords(w.X0), 4)
	total := 0
	for pr, rows := range ownerSections(part) {
		if !slices.IsSorted(rows) {
			t.Fatalf("proc %d: owner rows not ascending", pr)
		}
		section := BuildPairsRows(nil, &p, w.L, w.X0, rows)
		for k, x := range section {
			if ownerOfPair(x, part) != pr {
				t.Fatalf("proc %d: pair %d %v assigned to wrong section", pr, k, x)
			}
		}
		total += len(section)
	}
	if total != len(pairs) {
		t.Fatalf("sections hold %d pairs, interaction list %d", total, len(pairs))
	}
}

// runAll executes all four backends and checks bit-exact agreement.
func runAll(t *testing.T, p Params) map[string]*apps.Result {
	t.Helper()
	w := Generate(p)
	seq := RunSequential(w)
	tmkBase := RunTmk(w, TmkOptions{})
	tmkOpt := RunTmk(w, TmkOptions{Optimized: true})
	ch := RunChaos(w)
	for _, r := range []*apps.Result{tmkBase, tmkOpt, ch} {
		if err := apps.VerifyEqual(seq, r); err != nil {
			t.Fatalf("backend %s diverges from sequential: %v", r.System, err)
		}
	}
	return map[string]*apps.Result{
		"seq": seq, "tmk": tmkBase, "tmk-opt": tmkOpt, "chaos": ch,
	}
}

func TestAllBackendsAgreeNoRebuild(t *testing.T) {
	runAll(t, testParams(192, 4, 3, 0))
}

func TestAllBackendsAgreeWithRebuilds(t *testing.T) {
	runAll(t, testParams(192, 4, 6, 2))
}

func TestAllBackendsAgreeEightProcs(t *testing.T) {
	runAll(t, testParams(320, 8, 4, 2))
}

func TestAllBackendsAgreeOddProcs(t *testing.T) {
	runAll(t, testParams(200, 3, 4, 2))
}

func TestOptimizedUsesFewerMessagesThanBase(t *testing.T) {
	rs := runAll(t, testParams(320, 8, 6, 3))
	if rs["tmk-opt"].Messages >= rs["tmk"].Messages {
		t.Errorf("optimized (%d msgs) not fewer than base (%d msgs)",
			rs["tmk-opt"].Messages, rs["tmk"].Messages)
	}
	if rs["tmk-opt"].TimeSec >= rs["tmk"].TimeSec {
		t.Errorf("optimized (%.3fs) not faster than base (%.3fs)",
			rs["tmk-opt"].TimeSec, rs["tmk"].TimeSec)
	}
}

func TestSpeedupReasonable(t *testing.T) {
	// At paper scale the computation dominates; emulate that at test
	// scale by raising the per-interaction cost so the 8-processor run
	// must show real scaling.
	p := testParams(512, 8, 8, 0)
	p.Costs.InteractionUS = 100
	w := Generate(p)
	seq := RunSequential(w)
	opt := RunTmk(w, TmkOptions{Optimized: true})
	sp := seq.TimeSec / opt.TimeSec
	if sp < 4 || sp > 8.2 {
		t.Errorf("8-proc compute-bound speedup = %.2f, implausible", sp)
	}
}

func TestRebuildChangesPairs(t *testing.T) {
	// The drift must actually change the interaction list; otherwise the
	// update-frequency experiments are vacuous.
	p := testParams(256, 2, 8, 0)
	w := Generate(p)
	x := append([]float64(nil), w.X0...)
	before, _ := BuildPairs(&p, w.L, x)
	// Integrate a few steps with zero force (drift only).
	for s := 0; s < 8; s++ {
		for i := range x {
			x[i] = integrate(x[i], 0, w.Drift[i], w.L)
		}
	}
	after, _ := BuildPairs(&p, w.L, x)
	same := 0
	seen := map[[2]int32]bool{}
	for _, pr := range before {
		seen[pr] = true
	}
	for _, pr := range after {
		if seen[pr] {
			same++
		}
	}
	if same == len(before) && len(after) == len(before) {
		t.Error("interaction list did not change after 8 drift steps")
	}
}

func TestTmkDeterministicAcrossRuns(t *testing.T) {
	// Exact equality, including simulated times — no tolerance band. The
	// chaos backend is included because its gather/scatter/allgather
	// receive path was the historically wobbly one.
	p := testParams(192, 4, 4, 2)
	w := Generate(p)
	for name, run := range map[string]func() *apps.Result{
		"tmk-opt": func() *apps.Result { return RunTmk(w, TmkOptions{Optimized: true}) },
		"chaos":   func() *apps.Result { return RunChaos(w) },
	} {
		a := run()
		b := run()
		if a.TimeSec != b.TimeSec || a.Messages != b.Messages || a.DataMB != b.DataMB {
			t.Errorf("%s nondeterministic: (%v,%d,%v) vs (%v,%d,%v)",
				name, a.TimeSec, a.Messages, a.DataMB, b.TimeSec, b.Messages, b.DataMB)
		}
	}
}

func TestChaosInspectorCostGrowsWithRebuilds(t *testing.T) {
	p1 := testParams(256, 4, 8, 0)
	p2 := testParams(256, 4, 8, 2) // rebuilds every 2 steps
	w1, w2 := Generate(p1), Generate(p2)
	r1, r2 := RunChaos(w1), RunChaos(w2)
	if r2.Detail["inspector_s"] <= r1.Detail["inspector_s"] {
		t.Errorf("inspector time did not grow with rebuilds: %v vs %v",
			r1.Detail["inspector_s"], r2.Detail["inspector_s"])
	}
}
