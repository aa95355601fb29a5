// The CHAOS backend (§5.1): RCB partition, remapped local arrays, an
// inspector run at program start and after every interaction-list
// rebuild, and schedule-driven gather/scatter in ComputeForces. The
// paper could not afford a replicated translation table at this problem
// size, so the table is distributed, which makes the inspector
// communicate.
package moldyn

import (
	"slices"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// RunChaos executes the workload with the inspector-executor library.
func RunChaos(w *Workload) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs
	icost := p.Inspector
	ecost := chaos.DefaultExecutorCost()

	cl := sim.NewCluster(p.simConfig())
	part := chaos.RCB(Coords(w.X0), nprocs)
	tt := chaos.NewTransTable(part, p.TableKind)
	tt.CachePages = p.TableCachePages
	counts := part.Counts()

	// ownGlobals[p] lists the globals proc p owns, in local-offset order.
	ownGlobals := ownerSections(part)

	res := &apps.Result{System: "chaos", TableOrg: p.TableKind.String()}
	meas := apps.NewMeasure(cl)
	inspectorSec := make([]float64, nprocs)

	// Final state per proc for post-run assembly.
	finalX := make([][]float64, nprocs)
	finalF := make([][]float64, nprocs)

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		own := counts[me]
		mem := &cl.Mem
		meas.Start(proc)

		// Working state: current pair section and local arrays. The
		// initial section is built from this processor's owner rows
		// (untimed initialization, like the paper's).
		pairs := BuildPairsRows(nil, &p, w.L, w.X0, ownGlobals[me])
		mem.Alloc(me, apps.MemCatPairs, int64(8*len(pairs)))
		// xGlob is this proc's replicated coordinate copy, refreshed at
		// every rebuild (allgather) and used only to rebuild the list.
		xGlob := append([]float64(nil), w.X0...)
		mem.Alloc(me, apps.MemCatReplica, int64(8*len(xGlob)))

		var sch *chaos.Schedule
		var xLoc, fLoc []float64
		var dataBytes int64
		tag := 0

		// runInspector builds the schedule for the current section and
		// then localizes the section in place: every global index is
		// rewritten to its local (owned or ghost) slot, so the executor
		// indexes xLoc/fLoc directly.
		runInspector := func() {
			t0 := proc.Clock()
			globals := make([]int, 0, 2*len(pairs))
			for _, pr := range pairs {
				globals = append(globals, int(pr[0]), int(pr[1]))
			}
			if sch != nil {
				sch.ReleaseMem(proc) // replaced by the re-run below
			}
			sch = chaos.Inspect(proc, tag, globals, tt, icost)
			for k, pr := range pairs {
				pairs[k] = [2]int32{sch.LocalOf(int(pr[0])), sch.LocalOf(int(pr[1]))}
			}
			slots := own + sch.Ghosts
			mem.Free(me, apps.MemCatData, dataBytes)
			dataBytes = int64(2 * 8 * 3 * slots) // xLoc + fLoc
			mem.Alloc(me, apps.MemCatData, dataBytes)
			xLoc = make([]float64, 3*slots)
			fLoc = make([]float64, 3*slots)
			// Fill owned coordinates from the replicated copy.
			for k, g := range ownGlobals[me] {
				for dd := 0; dd < 3; dd++ {
					xLoc[3*k+dd] = xGlob[3*g+dd]
				}
			}
			inspectorSec[me] += (proc.Clock() - t0) / 1e6
		}
		runInspector()

		// The parallel rebuild's interleaved rows and their charged
		// check count are fixed; its output buffer is reused.
		rows := stridedRows(n, nprocs, me)
		checks := stridedChecks(n, nprocs, me)
		var built [][2]int32
		for step := 1; step <= p.Steps; step++ {
			if p.UpdateEvery > 0 && step > 1 && (step-1)%p.UpdateEvery == 0 {
				// Allgather coordinates, rebuild the list in parallel
				// (each processor scans interleaved rows and the pair
				// buckets are exchanged all-to-all), re-run the
				// inspector.
				tag++
				allgatherX(proc, tag, part, ownGlobals, xLoc, xGlob)
				built = BuildPairsRows(built[:0], &p, w.L, xGlob, rows)
				proc.Advance(cost.RebuildUSPerCheck * float64(checks))
				tag++
				mem.Free(me, apps.MemCatPairs, int64(8*len(pairs)))
				pairs = exchangePairs(proc, tag, BucketPairsByOwner(built, part), pairs)
				mem.Alloc(me, apps.MemCatPairs, int64(8*len(pairs)))
				tag++
				runInspector()
			}

			// Gather off-processor coordinates and forces. The paper's
			// program gathers both ("Both x and forces are modified
			// elsewhere, necessitating the gather"); our formulation
			// recomputes forces from zero each step, so the gathered
			// force values are immediately overwritten — the exchange is
			// kept for communication parity with the measured program.
			tag++
			chaos.Gather(proc, tag, sch, xLoc, 3, ecost)
			tag++
			chaos.Gather(proc, tag, sch, fLoc, 3, ecost)

			// Force computation into local (owned + ghost) slots.
			for i := range fLoc {
				fLoc[i] = 0
			}
			proc.Advance(cost.ZeroUSPerElem * float64(len(fLoc)))
			for _, pr := range pairs {
				l1, l2 := int(pr[0]), int(pr[1])
				for dd := 0; dd < 3; dd++ {
					f := apps.MinImage(xLoc[3*l1+dd]-xLoc[3*l2+dd], w.L)
					fLoc[3*l1+dd] += f
					fLoc[3*l2+dd] -= f
				}
			}
			proc.Advance(cost.InteractionUS * float64(len(pairs)))

			// Scatter force contributions back to their owners.
			tag++
			chaos.ScatterAdd(proc, tag, sch, fLoc, 3, ecost)

			// Integrate owned molecules.
			for k, g := range ownGlobals[me] {
				for dd := 0; dd < 3; dd++ {
					xLoc[3*k+dd] = integrate(xLoc[3*k+dd], fLoc[3*k+dd], w.Drift[3*g+dd], w.L)
				}
			}
			proc.Advance(cost.IntegrateUSPerMol * float64(own))
		}
		meas.End(proc)
		finalX[me] = xLoc[:3*own]
		finalF[me] = fLoc[:3*own]
		// Teardown: return the app-level charges so the ledger balances.
		mem.Free(me, apps.MemCatData, dataBytes)
		mem.Free(me, apps.MemCatPairs, int64(8*len(pairs)))
		mem.Free(me, apps.MemCatReplica, int64(8*len(xGlob)))
		sch.ReleaseMem(proc)
	})
	tt.ReleaseMem(cl)

	res.TimeSec = meas.TimeSec()
	res.Messages, res.DataMB = meas.Traffic()
	res.SetMemStats(meas.MemStats())
	for k, v := range meas.Categories() {
		res.AddDetail("msgs."+k, float64(v.Messages))
		res.AddDetail("mb."+k, float64(v.Bytes)/1e6)
	}
	worst := 0.0
	for _, s := range inspectorSec {
		if s > worst {
			worst = s
		}
	}
	res.AddDetail("inspector_s", worst)

	// Assemble global state from the remapped local arrays.
	res.X = make([]float64, 3*n)
	res.Forces = make([]float64, 3*n)
	for pr := 0; pr < nprocs; pr++ {
		for k, g := range ownGlobals[pr] {
			for dd := 0; dd < 3; dd++ {
				res.X[3*g+dd] = finalX[pr][3*k+dd]
				res.Forces[3*g+dd] = finalF[pr][3*k+dd]
			}
		}
	}
	return res
}

// allgatherX refreshes every processor's replicated coordinate copy: each
// processor broadcasts its owned block ("chaos.allgather", one message
// per peer), then merges what it receives.
func allgatherX(proc *sim.Proc, tag int, part *chaos.Partition,
	ownGlobals [][]int, xLoc []float64, xGlob []float64) {

	me := proc.ID()
	nprocs := part.NProcs
	mine := make([]float64, 3*len(ownGlobals[me]))
	copy(mine, xLoc[:3*len(ownGlobals[me])])
	for q := 0; q < nprocs; q++ {
		if q != me {
			proc.Send(q, "chaos.allgather", tag, mine, 8*len(mine))
		}
	}
	// Own block.
	for k, g := range ownGlobals[me] {
		for dd := 0; dd < 3; dd++ {
			xGlob[3*g+dd] = xLoc[3*k+dd]
		}
	}
	proc.RecvEach("chaos.allgather", tag, nprocs-1, func(from int, payload any) {
		vals := payload.([]float64)
		for k, g := range ownGlobals[from] {
			for dd := 0; dd < 3; dd++ {
				xGlob[3*g+dd] = vals[3*k+dd]
			}
		}
	})
}

// exchangePairs routes each builder's per-owner pair buckets to their
// owners ("chaos.pairx", one message per pair of processors) and returns
// this processor's section: the concatenation, in builder order, of
// every builder's bucket for it — the same deterministic layout the
// TreadMarks backend stores in shared memory. The section overwrites
// dst, the processor's previous (no longer needed) section.
func exchangePairs(proc *sim.Proc, tag int, buckets [][][2]int32, dst [][2]int32) [][2]int32 {
	me := proc.ID()
	np := proc.NProcs()
	byBuilder := make([][][2]int32, np)
	byBuilder[me] = buckets[me]
	for o := 0; o < np; o++ {
		if o == me {
			continue
		}
		proc.Send(o, "chaos.pairx", tag, buckets[o], 8*len(buckets[o]))
	}
	proc.RecvEach("chaos.pairx", tag, np-1, func(from int, payload any) {
		byBuilder[from] = payload.([][2]int32)
	})
	total := 0
	for _, bucket := range byBuilder {
		total += len(bucket)
	}
	out := slices.Grow(dst[:0], total)
	for _, bucket := range byBuilder {
		out = append(out, bucket...)
	}
	return out
}
