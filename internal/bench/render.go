// The presentation layer: pure functions from a structured RunResult
// (run.go) to the exact text of each experiment's rendering. The
// present* functions simulate nothing — they format numbers an earlier
// Run produced, so a cached result renders byte-for-byte the same as a
// cold one. PresentResult (codec.go) is the one dispatch the scenario
// engine and the run service share, so the golden fixtures under
// cmd/scenario/testdata are the contract for both.
package bench

import (
	"fmt"
	"io"

	"repro/internal/mem"
)

// Table1Params names one full table1 rendering (the table1
// experiment's spec params).
type Table1Params struct {
	N, Procs, Steps int
}

// presentTable1 formats Table 1 from a table1 RunResult: the table,
// the verification line, and the in-text claims (§5.1).
func presentTable1(w io.Writer, p Table1Params, res *RunResult) {
	cfg := fmt.Sprintf(
		"Table 1: Moldyn - %d processor results (N=%d, %s). The interaction list is updated at varying intervals.",
		p.Procs, p.N, fmtN(p.Steps, "steps"))
	tbl := appTableView(cfg, res.Apps, false)
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nAll parallel backends verified bit-identical to the sequential program.")
	fmt.Fprintln(w)
	for _, r := range res.Apps {
		fmt.Fprintf(w, "%-36s inspector %.2f s/proc, Validate scan %.2f s, opt vs CHAOS %+.0f%%, opt vs base %+.0f%%\n",
			r.Config,
			r.Chaos.Detail["inspector_s"],
			r.Opt.Detail["scan_s"],
			100*(r.Chaos.TimeSec-r.Opt.TimeSec)/r.Chaos.TimeSec,
			100*(r.Base.TimeSec-r.Opt.TimeSec)/r.Base.TimeSec)
	}
}

// Table2Params names one full table2 rendering.
type Table2Params struct {
	Scale, Procs, Steps, Partners int
}

// presentTable2 formats Table 2 from a table2 RunResult.
func presentTable2(w io.Writer, p Table2Params, res *RunResult) {
	title := fmt.Sprintf(
		"Table 2: NBF Kernel - %d processor results (%s, %s).",
		p.Procs, fmtN(p.Partners, "partners/molecule"), fmtN(p.Steps, "timed steps"))
	tbl := appTableView(title, res.Apps, false)
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nAll parallel backends verified bit-identical to the sequential program.")
	fmt.Fprintln(w)
	for _, r := range res.Apps {
		fmt.Fprintf(w, "%-28s inspector %.2f s/proc (untimed), Validate scan %.3f s, opt vs CHAOS %+.0f%%, opt vs base %+.0f%%\n",
			r.Config,
			r.Chaos.Detail["inspector_s"],
			r.Opt.Detail["scan_s"],
			100*(r.Chaos.TimeSec-r.Opt.TimeSec)/r.Chaos.TimeSec,
			100*(r.Base.TimeSec-r.Opt.TimeSec)/r.Base.TimeSec)
	}
}

// Table3Params names one full table3 rendering.
type Table3Params struct {
	N, NNZ, Procs, Steps int
}

// presentTable3 formats Table 3 from a table3 RunResult.
func presentTable3(w io.Writer, p Table3Params, res *RunResult) {
	title := fmt.Sprintf(
		"Table 3: SPMV and Unstruct - %d processor results (%s, %s).",
		p.Procs, fmtN(p.NNZ, "nonzeros/row"), fmtN(p.Steps, "timed sweeps"))
	tbl := appTableView(title, res.Apps, true)
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nAll parallel backends verified bit-identical to the sequential program.")
	fmt.Fprintln(w)
	for _, r := range res.Apps {
		fmt.Fprintf(w, "%-28s inspector %.3f s/proc (untimed), Validate scan %.3f s, opt vs base: %.1fx fewer messages, %.0f%% less time\n",
			r.Config,
			r.Chaos.Detail["inspector_s"],
			r.Opt.Detail["scan_s"],
			float64(r.Base.Messages)/float64(r.Opt.Messages),
			100*(r.Base.TimeSec-r.Opt.TimeSec)/r.Base.TimeSec)
	}
}

// Table4Params names one full table4 rendering.
type Table4Params struct {
	Cities, Items, Procs    int
	Depth, Batch, ItemBatch int
}

// presentTable4 formats Table 4 from a table4 RunResult: the
// lock-workload table with its lock columns and the batching claims.
func presentTable4(w io.Writer, p Table4Params, res *RunResult) {
	tbl := lockTableView(fmt.Sprintf(
		"Table 4: Lock-based workloads - %d processor results (branch-and-bound TSP; migratory task queue).",
		p.Procs), res.Apps)
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nAll parallel backends verified bit-identical to the sequential program.")
	fmt.Fprintln(w)
	for _, r := range res.Apps {
		base, opt := r.Base.LockTotal(), r.Opt.LockTotal()
		// All grants are idle on an uncontended (e.g. 1-processor)
		// cluster; there is no wait to compare then.
		waitClause := "wait n/a (uncontended)"
		if base.WaitUS > 0 {
			waitClause = fmt.Sprintf("%+.0f%% wait", 100*(opt.WaitUS-base.WaitUS)/base.WaitUS)
		}
		fmt.Fprintf(w, "%-28s Tmk vs PVM %+.0f%% time; batching: %.1fx fewer acquires, %s, %.1fx fewer messages\n",
			r.Config,
			100*(r.Base.TimeSec-r.Chaos.TimeSec)/r.Chaos.TimeSec,
			float64(base.Acquires)/float64(opt.Acquires),
			waitClause,
			float64(r.Base.Messages)/float64(r.Opt.Messages))
	}
}

// Table5Params names one full table5 rendering.
type Table5Params struct {
	Procs, BudgetKB      int
	MoldynN, NbfN, SpmvN int
	MoldynSteps, Steps   int
}

// presentTable5 formats Table 5 from a table5 RunResult: per-processor
// footprint high-water marks and the policy-selected table column.
func presentTable5(w io.Writer, p Table5Params, res *RunResult) {
	tbl := memTableView(table5Title(p), res.Apps)
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nAll parallel backends verified bit-identical to the sequential program.")
	fmt.Fprintln(w)
	for _, r := range res.Apps {
		fmt.Fprintf(w, "%-28s CHAOS table: %-18s CHAOS peak %7.1f KB/proc, Tmk opt peak %7.1f KB/proc\n",
			r.Config, r.Chaos.TableOrg, r.Chaos.MaxPeakMB()*1e3, r.Opt.MaxPeakMB()*1e3)
	}
}

func table5Title(p Table5Params) string {
	budget := "no table budget (app-default organizations)"
	if p.BudgetKB > 0 {
		budget = fmt.Sprintf("table budget %d KB/proc, organization policy-selected", p.BudgetKB)
	}
	return fmt.Sprintf(
		"Table 5: Simulated per-processor memory footprint - %d processor results (%s).",
		p.Procs, budget)
}

// MemorySweepParams names one full memory-sweep rendering.
type MemorySweepParams struct {
	N, Procs int
}

// presentMemorySweep formats the §9 capacity sweep from a memory
// RunResult: both budget grids and the verified anecdote. The
// table_budget_kb axis points (res.Mem.Budget) are metrics-only and
// deliberately unrendered, so a budget-swept scenario still renders
// byte-identically to the memory golden fixture.
func presentMemorySweep(w io.Writer, sp MemorySweepParams, res *RunResult) {
	n, procs := sp.N, sp.Procs
	d := res.Mem
	fmt.Fprintf(w, "S9: memory budget vs translation-table organization (%d procs)\n\n", procs)

	fmt.Fprintf(w, "moldyn N=%d (whole-table working set)\n", n)
	fmt.Fprintf(w, "%14s%16s%14s%14s%14s\n", "budget (KB)", "plan", "ttable msgs", "ttable (MB)", "peak/proc KB")
	for _, row := range d.Moldyn {
		fmt.Fprintf(w, "%14d%16s%14d%14.2f%14.1f\n",
			row.BudgetKB, row.Plan, row.TtableMsgs, row.TtableMB, row.PeakKB)
	}

	// spmv's inspector runs once, before the timed window, so the
	// columns here are storage, not traffic: the charged table bytes
	// track the budget as the cache bound shrinks.
	fmt.Fprintf(w, "\nspmv N=%d, banded (localized working set)\n", 4*n)
	fmt.Fprintf(w, "%14s%16s%14s%14s\n", "budget (KB)", "plan", "table KB/proc", "peak/proc KB")
	for _, row := range d.Spmv {
		fmt.Fprintf(w, "%14d%16s%14.1f%14.1f\n",
			row.BudgetKB, row.Plan, row.TableKB, row.PeakKB)
	}
	fmt.Fprintln(w, "\nShrinking the budget forces replicated -> (paged, if the working set")
	fmt.Fprintln(w, "fits) -> distributed; a cache below the working set would thrash, so")
	fmt.Fprintln(w, "the policy degrades straight to the segment-only table.")

	rep := d.Anecdote
	p := MoldynAnecdoteParams()
	fmt.Fprintf(w, "\nThe moldyn anecdote (asserted, run twice, bit-identical):\n")
	fmt.Fprintf(w, "  N=%d, %d procs, %d steps, list updated every %d; table budget %d KB/proc\n",
		p.N, p.Procs, p.Steps, p.UpdateEvery, mem.PaperTableBudget>>10)
	fmt.Fprintf(w, "  policy: replicated table (%d KB) rejected -> %s\n",
		mem.ReplicatedBytes(p.N)>>10, rep.Plan)
	fmt.Fprintf(w, "  inspector translation traffic: %.1f MB in %d messages (paper: 85 MB in 878)\n",
		float64(rep.TtableBytes)/1e6, rep.TtableMsgs)
	fmt.Fprintf(w, "  peak footprint %.1f KB/proc, simulated time %.1f s\n", rep.PeakKB, rep.TimeSec)
}

// memBudgets returns table budgets spanning the organization crossover
// for an n-entry table with the given working set: comfortably above
// the replicated table, just below it, at the paged working set (if it
// is below replication), and at the bare segment.
func memBudgets(n, procs, workPages int) []int64 {
	repl := mem.ReplicatedBytes(n)
	seg := mem.SegmentBytes(n, procs)
	budgets := []int64{repl + (8 << 10), repl - 1}
	if paged := seg + int64(workPages)*mem.TablePageBytes; paged < repl {
		budgets = append(budgets, paged)
	}
	return append(budgets, seg)
}
