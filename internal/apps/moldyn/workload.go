// Package moldyn implements the paper's first application (§5.1): a
// molecular-dynamics simulation whose computational structure resembles
// the non-bonded force calculation in CHARMM. An interaction list of all
// molecule pairs within a cutoff radius serves as the indirection array;
// because molecules move, the list is rebuilt every UPDATE_INTERVAL
// steps — the event that forces CHAOS to re-run its inspector and that
// the optimized TreadMarks system detects through write protection.
//
// Four backends share one workload and one (quantized, hence exactly
// reproducible) numeric kernel: RunSequential, RunTmk (base and
// optimized), and RunChaos.
package moldyn

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// Costs is the compute-cost model (microseconds), shared by all
// backends so comparisons isolate communication behaviour.
type Costs struct {
	InteractionUS     float64 // one pair force evaluation
	IntegrateUSPerMol float64 // one molecule position update
	ZeroUSPerElem     float64 // zeroing one local-force element
	ReduceUSPerElem   float64 // one element of the force reduction
	RebuildUSPerCheck float64 // one candidate-pair distance check
}

// DefaultCosts returns the calibrated model (DESIGN.md §2). The
// interaction cost reflects a late-90s CPU evaluating one cutoff pair
// (tens to hundreds of flops plus the indirection); the rebuild cost per
// candidate check keeps the paper's ratio of rebuild time to step time
// (the sequential time grows ~40% per extra rebuild in Table 1).
func DefaultCosts() Costs {
	return Costs{
		InteractionUS:     0.4,
		IntegrateUSPerMol: 0.20,
		ZeroUSPerElem:     0.004,
		ReduceUSPerElem:   0.010,
		RebuildUSPerCheck: 3.8,
	}
}

// Params configures a moldyn experiment.
type Params struct {
	N           int     // number of molecules
	Steps       int     // simulation steps (all timed, as in the paper)
	UpdateEvery int     // interaction-list rebuild interval; 0 = never
	Procs       int     // processors for the parallel backends
	Cutoff      float64 // interaction cutoff radius (absolute)
	CutoffFrac  float64 // if > 0, Cutoff is set to this fraction of the box side at Generate
	Density     float64 // molecules per unit volume (sets the box side)
	Seed        int64
	PageSize    int
	TableKind   chaos.TableKind // translation-table organization for CHAOS
	// TableCachePages bounds the Paged table's per-processor cache
	// (chaos.TransTable.CachePages); 0 = unbounded. Set by the memory
	// capacity policy (internal/mem) when a budget is in force.
	TableCachePages int
	// MaxMsgB overrides the simulated machine's fragmentation threshold
	// (0 = sim.DefaultConfig). The memory ablation's anecdote run uses a
	// large value: the measured CHAOS program's bulk inspector exchanges
	// were not fragmented at the paper's message-count granularity.
	MaxMsgB int
	// Machine carries the latency/bandwidth overrides the scenario
	// engine sweeps (zero fields = SP2 default).
	Machine apps.Machine
	Costs   Costs
	// Inspector is the CHAOS inspector cost model, calibrated so one
	// inspector execution costs the paper's ~7-9 step-times per
	// processor (4.6-9.2 s against 0.5 s per-processor steps).
	Inspector chaos.InspectorCost
}

// DefaultParams mirrors the paper's setup at a configurable scale: the
// paper simulates 16384 molecules for 40 steps on 8 processors with the
// list updated every 20/15/11 steps, a cutoff within which 31-53% of the
// molecules interact, and the distributed translation table (they could
// not afford a replicated one). Costs are calibrated so that the
// rebuild-to-step time ratio matches the paper's sequential column
// (~24 steps' worth per rebuild: 267->467 s as rebuilds go 1->3).
func DefaultParams(n, procs int) Params {
	return Params{
		N:           n,
		Steps:       40,
		UpdateEvery: 20,
		Procs:       procs,
		CutoffFrac:  0.457,
		Density:     0.0625,
		Seed:        1997,
		PageSize:    4096,
		TableKind:   chaos.Distributed,
		Costs:       DefaultCosts(),
		Inspector:   chaos.InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: true},
	}
}

// Workload is the generated input: initial lattice positions and
// per-molecule drift velocities (all quantized).
type Workload struct {
	P     Params
	L     float64   // box side
	X0    []float64 // 3N initial coordinates
	Drift []float64 // 3N per-step drift (models thermal motion)
}

// Generate builds the workload deterministically from Params.Seed.
func Generate(p Params) *Workload {
	if p.Costs == (Costs{}) {
		p.Costs = DefaultCosts()
	}
	if p.Inspector == (chaos.InspectorCost{}) {
		p.Inspector = chaos.InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: true}
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	rng := rand.New(rand.NewSource(p.Seed))
	side := cubeSide(float64(p.N) / p.Density)
	l := apps.Q(side)
	if p.CutoffFrac > 0 {
		// The paper's data set has each molecule interacting with
		// 31-53% of the molecules; a cutoff of ~0.457 of the box side
		// puts ~40% of the volume inside the cutoff sphere.
		p.Cutoff = p.CutoffFrac * l
	}
	x := make([]float64, 3*p.N)
	drift := make([]float64, 3*p.N)
	for i := 0; i < 3*p.N; i++ {
		x[i] = apps.Q(rng.Float64() * l)
		if x[i] >= l {
			x[i] = 0
		}
		// Drift magnitude ~ a few lattice steps per time step, enough to
		// change the interaction list between rebuilds.
		drift[i] = apps.Q((rng.Float64() - 0.5) * 0.08)
	}
	return &Workload{P: p, L: l, X0: x, Drift: drift}
}

// cubeSide returns the cube root.
func cubeSide(v float64) float64 {
	s := v
	for i := 0; i < 64; i++ {
		s = (2*s + v/(s*s)) / 3
	}
	return s
}

// Coords converts flat coordinates to the [][3]float64 view RCB expects.
func Coords(x []float64) [][3]float64 {
	n := len(x) / 3
	out := make([][3]float64, n)
	for i := range out {
		out[i] = [3]float64{x[3*i], x[3*i+1], x[3*i+2]}
	}
	return out
}

// BuildPairs computes the interaction list for positions x: all pairs
// (i<j) with minimum-image distance at most Cutoff, ordered by i and
// then j, plus checks, the candidate-pair count of the paper-era
// exhaustive scan (N(N-1)/2) that the model charges for a rebuild. The
// host computes the same list on a cell grid (DESIGN.md §16).
func BuildPairs(p *Params, l float64, x []float64) (pairs [][2]int32, checks int64) {
	return BuildPairsStrided(p, l, x, 1, 0)
}

// BuildPairsStrided computes the interaction pairs whose first molecule
// i satisfies i % mod == eq — the parallel rebuild decomposition: each
// processor takes an interleaved subset of the rows, which balances the
// triangular pair loop. The pairs are exactly BuildPairs' pairs for
// those rows, in the same (i ascending, j ascending) order, and checks
// is the paper-era scan's count for those rows, the sum of N-1-i.
func BuildPairsStrided(p *Params, l float64, x []float64, mod, eq int) (pairs [][2]int32, checks int64) {
	return BuildPairsRows(nil, p, l, x, stridedRows(p.N, mod, eq)), stridedChecks(p.N, mod, eq)
}

// stridedRows lists the rows i < n with i % mod == eq, ascending.
func stridedRows(n, mod, eq int) []int {
	rows := make([]int, 0, n/mod+1)
	for i := eq; i < n; i += mod {
		rows = append(rows, i)
	}
	return rows
}

// stridedChecks is the paper-era scan's candidate count for the rows
// stridedRows(n, mod, eq): the sum of n-1-i, in closed form.
func stridedChecks(n, mod, eq int) int64 {
	if eq >= n {
		return 0
	}
	rows := int64((n-1-eq)/mod + 1)
	return rows*int64(n-1-eq) - int64(mod)*rows*(rows-1)/2
}

// BuildPairsRows appends to dst the interaction pairs (i, j>i) of each
// row i in rows, in row order and j ascending within a row, and returns
// the extended slice. Rows listed ascending give BuildPairs' order
// restricted to them — a processor's owner rows give its
// almost-owner-computes section directly (ownerOfPair is the owner of
// i), and interleaved rows give the strided rebuild.
//
// The host bins molecules into cells of side at least Cutoff/2, so a
// row's partners lie in the 5x5x5 cells around its own; cells of that
// block farther than the cutoff from the row's molecule are skipped.
// Below five cells a side the block wraps onto itself, so every pair is
// scanned instead; at most cbrt(N) cells a side bound the grid's
// memory. A row's hits collect in a bitmap over j, which drains in
// ascending order (DESIGN.md §16).
func BuildPairsRows(dst [][2]int32, p *Params, l float64, x []float64, rows []int) [][2]int32 {
	n := p.N
	rc2 := p.Cutoff * p.Cutoff
	near := func(i, j int) bool {
		dx := apps.MinImage(x[3*i]-x[3*j], l)
		dy := apps.MinImage(x[3*i+1]-x[3*j+1], l)
		dz := apps.MinImage(x[3*i+2]-x[3*j+2], l)
		return dx*dx+dy*dy+dz*dz <= rc2
	}
	g := min(2*l/(p.Cutoff*(1+1e-9)), cubeSide(float64(n)))
	if !(g >= 5) { // also when g is NaN, as cubeSide gives for N = 0
		for _, i := range rows {
			for j := i + 1; j < n; j++ {
				if near(i, j) {
					dst = append(dst, [2]int32{int32(i), int32(j)})
				}
			}
		}
		return dst
	}
	m := int(g)
	scale := float64(m) / l
	cell := make([]int32, n)
	start := make([]int32, m*m*m+1) // cell c holds members[start[c]:start[c+1]]
	for i := range cell {
		c := 0
		for d := 2; d >= 0; d-- {
			c = c*m + min(int(x[3*i+d]*scale), m-1)
		}
		cell[i] = int32(c)
		start[c]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	members := make([]int32, n)
	for i := n - 1; i >= 0; i-- { // descending fill: each cell ascending
		start[cell[i]]--
		members[start[cell[i]]] = int32(i)
	}
	wrap := make([]int, m+4) // wrap[c+2+d] = (c+d) mod m
	for k := range wrap {
		wrap[k] = (k - 2 + m) % m
	}
	// A cell farther than the cutoff from molecule i is skipped; the
	// slack keeps rounding in the cell bounds from pruning a partner.
	side, reach := l/float64(m), p.Cutoff+1e-12*l
	lim := reach * reach
	var gap [3][5]float64 // squared axis distance from i to cell offsets -2..2
	hits := make([]uint64, (n+63)/64)
	for _, i := range rows {
		c := int(cell[i])
		cc := [3]int{c % m, c / m % m, c / (m * m)}
		for a, ca := range cc {
			lo := x[3*i+a] - float64(ca)*side // i's offset inside its cell
			hi := side - lo
			gap[a] = [5]float64{(lo + side) * (lo + side), lo * lo, 0, hi * hi, (hi + side) * (hi + side)}
		}
		for dz, z := range wrap[cc[2] : cc[2]+5] {
			for dy, y := range wrap[cc[1] : cc[1]+5] {
				for dx, xc := range wrap[cc[0] : cc[0]+5] {
					if gap[2][dz]+gap[1][dy]+gap[0][dx] > lim {
						continue
					}
					id := (z*m+y)*m + xc
					// Members ascend, so those past i are a suffix.
					for k := start[id+1] - 1; k >= start[id] && int(members[k]) > i; k-- {
						if j := members[k]; near(i, int(j)) {
							hits[j>>6] |= 1 << (j & 63)
						}
					}
				}
			}
		}
		for w := (i + 1) >> 6; w < len(hits); w++ {
			for b := hits[w]; b != 0; b &= b - 1 {
				dst = append(dst, [2]int32{int32(i), int32(w<<6 + bits.TrailingZeros64(b))})
			}
			hits[w] = 0
		}
	}
	return dst
}

// BucketPairsByOwner splits a pair list into per-owner buckets under the
// almost-owner-computes rule, preserving order within each bucket. The
// buckets share one backing array sized from a counting pass.
func BucketPairsByOwner(pairs [][2]int32, part *chaos.Partition) [][][2]int32 {
	counts := make([]int, part.NProcs)
	for _, pr := range pairs {
		counts[ownerOfPair(pr, part)]++
	}
	backing := make([][2]int32, len(pairs))
	out := make([][][2]int32, part.NProcs)
	off := 0
	for o, c := range counts {
		out[o] = backing[off : off : off+c]
		off += c
	}
	for _, pr := range pairs {
		o := ownerOfPair(pr, part)
		out[o] = append(out[o], pr)
	}
	return out
}

// ownerSections returns ownGlobals[o], the globals processor o owns
// under part, ascending — its local-offset order, and the rows of its
// almost-owner-computes section of the interaction list.
func ownerSections(part *chaos.Partition) [][]int {
	rows := make([][]int, part.NProcs)
	for o, c := range part.Counts() {
		rows[o] = make([]int, 0, c)
	}
	for g, o := range part.Owner {
		rows[o] = append(rows[o], g)
	}
	return rows
}

// ownerOfPair applies almost-owner-computes to one pair.
func ownerOfPair(pr [2]int32, part *chaos.Partition) int {
	// With two elements the majority rule reduces to: both owners equal
	// -> that owner; otherwise the first element's owner.
	return part.Owner[pr[0]]
}

// stepPositions integrates one molecule's coordinate: exact arithmetic
// followed by re-quantization and periodic wrap.
func integrate(x, f, drift, l float64) float64 {
	return apps.Wrap(apps.Q(x+apps.Dt*f+drift), l)
}

// simConfig returns the simulated-machine description for this
// workload: the SP2 default with the workload's overrides applied.
func (p *Params) simConfig() sim.Config {
	cfg := p.Machine.Config(p.Procs)
	if p.MaxMsgB > 0 {
		cfg.MaxMsgB = p.MaxMsgB
	}
	return cfg
}

// String summarizes the workload.
func (w *Workload) String() string {
	return fmt.Sprintf("moldyn N=%d steps=%d update=%d procs=%d box=%.1f cutoff=%.1f",
		w.P.N, w.P.Steps, w.P.UpdateEvery, w.P.Procs, w.L, w.P.Cutoff)
}
