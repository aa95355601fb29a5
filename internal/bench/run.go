// The run layer (DESIGN.md §12): every experiment the repo knows —
// the five paper tables, the §9 memory sweep, and the generic
// registered-application grid — executes through one canonical entry
// point, Run(ctx, RunRequest), returning a structured RunResult with
// no io.Writer in sight. Rendering is a separate, pure pass over the
// result (render.go), so the same numbers can be printed, asserted,
// cached, or served without re-simulating.
//
// A RunRequest has a canonical byte encoding (Canonical) and a
// SHA-256 content address (Key). Because every simulated number is a
// pure function of its configuration (§7/§10 determinism), two
// requests with equal keys have bit-identical results — the cache
// coherence argument internal/cache and internal/runner build on.
// Presentation-only choices (the Detail flag, variant row filters)
// are deliberately absent from the request so they cannot fragment
// the cache.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"strconv"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/spmv"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/obs"
)

// RequestVersion is the canonical-encoding schema version; it moves
// only with a breaking change to the encoding (the scenario spec's
// "version:" key maps onto it). RequestVersionPerturb is the extended
// schema carrying a machine perturbation block. The version in the
// canonical header is derived from content, not from the struct field:
// a request with no perturbation always encodes as runrequest/v1 —
// byte-for-byte what pre-perturbation builds produced, so existing
// content addresses, disk-cache directories, and goldens stay valid —
// and a perturbed request always encodes as runrequest/v2.
const (
	RequestVersion        = 1
	RequestVersionPerturb = 2
)

// SweepAxis names one swept axis of an app-experiment request; the
// run grid is the cross product of the values and the procs list.
type SweepAxis struct {
	Axis   string
	Values []int
}

// RunRequest canonically encodes one experiment execution: which
// experiment, at what sizes, on how many simulated processors, with
// which knobs and machine overrides. Build requests with the
// TableNRequest/MemoryRequest helpers (or the scenario engine's
// Spec.Request) so Params is fully resolved — the encoding hashes
// exactly what is in the struct, and a default left implicit would
// alias two different runs under one key.
type RunRequest struct {
	// Version is the encoding schema version; 0 is normalized to
	// RequestVersion.
	Version int
	// Experiment is table1..table5, memory, or app.
	Experiment string
	// Params carries the canned experiments' fully-resolved
	// parameters (the experiment's spec params).
	Params map[string]int

	// The app-experiment fields (mirroring scenario.Spec).
	App     string
	N       int
	Steps   int
	Seed    int64
	Procs   []int
	Knobs   map[string]int
	Machine apps.Machine
	Sweep   *SweepAxis

	// BudgetSweepKB extends the memory experiment with the
	// table_budget_kb axis: the anecdote configuration re-planned and
	// re-run at each per-processor budget (metrics only; the rendered
	// sweep text is unchanged).
	BudgetSweepKB []int

	// Trace asks the run to record a deterministic simulated-event
	// trace (RunResult.Trace, DESIGN.md §13). Like the old Detail flag
	// it is deliberately NOT part of the canonical encoding: the
	// simulated numbers are identical with or without it. The runner
	// compensates by bypassing the result cache for traced requests —
	// a cache hit cannot replay a side effect.
	Trace bool
}

// Canonical returns the request's canonical byte encoding: a
// versioned header and every field in a fixed order with sorted map
// keys, so two structurally-equal requests encode identically no
// matter how they were built.
func (r RunRequest) Canonical() []byte {
	var b bytes.Buffer
	v := RequestVersion
	if r.Machine.Perturbed() {
		v = RequestVersionPerturb
	}
	fmt.Fprintf(&b, "runrequest/v%d\n", v)
	fmt.Fprintf(&b, "experiment=%s\n", r.Experiment)
	for _, k := range sortedIntKeys(r.Params) {
		fmt.Fprintf(&b, "param.%s=%d\n", k, r.Params[k])
	}
	fmt.Fprintf(&b, "app=%s\n", r.App)
	fmt.Fprintf(&b, "n=%d\nsteps=%d\nseed=%d\n", r.N, r.Steps, r.Seed)
	fmt.Fprintf(&b, "procs=%s\n", intList(r.Procs))
	for _, k := range sortedIntKeys(r.Knobs) {
		fmt.Fprintf(&b, "knob.%s=%d\n", k, r.Knobs[k])
	}
	fmt.Fprintf(&b, "machine.latency_us=%d\nmachine.bandwidth_mbs=%d\n",
		r.Machine.LatencyUS, r.Machine.BandwidthMBs)
	if r.Machine.Perturbed() {
		pert := r.Machine.Perturb
		if len(pert.CPU) > 0 {
			fmt.Fprintf(&b, "perturb.cpu=%s\n", floatList(pert.CPU))
		}
		if pert.JitterUS != 0 {
			fmt.Fprintf(&b, "perturb.jitter_us=%s\n", strconv.FormatFloat(pert.JitterUS, 'g', -1, 64))
		}
		if pert.JitterSeed != 0 {
			fmt.Fprintf(&b, "perturb.jitter_seed=%d\n", pert.JitterSeed)
		}
		links := append([]apps.LinkOverride(nil), pert.Links...)
		for i := 1; i < len(links); i++ {
			for j := i; j > 0 && (links[j].From < links[j-1].From ||
				(links[j].From == links[j-1].From && links[j].To < links[j-1].To)); j-- {
				links[j], links[j-1] = links[j-1], links[j]
			}
		}
		for _, l := range links {
			if l.LatencyUS != 0 {
				fmt.Fprintf(&b, "perturb.link.%d-%d.latency_us=%d\n", l.From, l.To, l.LatencyUS)
			}
			if l.BandwidthMBs != 0 {
				fmt.Fprintf(&b, "perturb.link.%d-%d.bandwidth_mbs=%d\n", l.From, l.To, l.BandwidthMBs)
			}
		}
	}
	if r.Sweep != nil {
		fmt.Fprintf(&b, "sweep.axis=%s\nsweep.values=%s\n", r.Sweep.Axis, intList(r.Sweep.Values))
	}
	if len(r.BudgetSweepKB) > 0 {
		fmt.Fprintf(&b, "budget_sweep_kb=%s\n", intList(r.BudgetSweepKB))
	}
	return b.Bytes()
}

// Key returns the request's content address: the SHA-256 of the
// canonical encoding.
func (r RunRequest) Key() cache.Key {
	return cache.KeyOf(r.Canonical())
}

func intList(vs []int) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// floatList joins floats with the shortest round-tripping decimal form
// ('g'/-1 — ParseFloat gives the identical bits back), so the encoding
// is canonical: one float value, one spelling.
func floatList(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}

func sortedIntKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Tiny maps; insertion sort keeps the import list honest.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RunResult holds one experiment's structured numbers: the verified
// per-configuration backend runs, the memory experiment's grids, and
// the flattened metrics the scenario engine asserts bands on. Results
// are shared through the cache; treat them as immutable.
type RunResult struct {
	Experiment string
	// Apps is the verified per-configuration results, in run order
	// (every experiment but memory).
	Apps []*AppResults
	// Mem is the memory experiment's structured sweep data.
	Mem *MemSweepData
	// Metrics is the flattened metric map (bench.Metrics for the app
	// experiments, the anecdote/budget metrics for memory).
	Metrics map[string]float64
	// Trace is the rendered Chrome trace-event JSON when the request
	// asked for one (nil otherwise). Byte-identical run to run: every
	// timestamp in it is a simulated instant.
	Trace []byte
}

// MemBudgetRow is one budget point of the moldyn (whole-working-set)
// grid of the memory sweep.
type MemBudgetRow struct {
	BudgetKB   int64
	Plan       string
	TtableMsgs int64
	TtableMB   float64
	PeakKB     float64
}

// SpmvBudgetRow is one budget point of the banded-spmv (localized
// working set) grid: storage, not traffic — the inspector runs before
// the timed window there.
type SpmvBudgetRow struct {
	BudgetKB int64
	Plan     string
	TableKB  float64
	PeakKB   float64
}

// BudgetPoint is one table_budget_kb axis point: the anecdote
// configuration re-planned under the given per-processor budget and
// re-run. PlanKind is the chaos.TableKind ordinal (0 replicated,
// 1 distributed, 2 paged) so plans can be asserted as metric bands.
type BudgetPoint struct {
	BudgetKB   int
	PlanKind   int
	Plan       string
	TtableMsgs int64
	TtableMB   float64
	PeakKB     float64
}

// MemSweepData is the memory experiment's structured result: both
// budget grids, the verified (run-twice, bit-identical) anecdote, and
// the optional table_budget_kb axis points.
type MemSweepData struct {
	Moldyn   []MemBudgetRow
	Spmv     []SpmvBudgetRow
	Anecdote AnecdoteReport
	Budget   []BudgetPoint
}

// Run executes one canonically-encoded experiment and returns its
// structured result. The context is observed at phase boundaries:
// between per-configuration runs and between the four backend
// executions of each configuration (apps.RunAllCtx) — a simulated
// cluster episode itself is never interrupted mid-flight, so a
// canceled run leaves no partially-verified results behind.
func Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Version != 0 && req.Version != RequestVersion && req.Version != RequestVersionPerturb {
		return nil, fmt.Errorf("bench: unsupported request version %d (supported: %d, %d)",
			req.Version, RequestVersion, RequestVersionPerturb)
	}
	res := &RunResult{Experiment: req.Experiment}
	// The trace recorder, when asked for: plumbed to every parallel
	// cluster through the Machine funnel (apps.Machine.Trace). The
	// memory experiment stays untraced — its grids re-run one backend
	// many times and the anecdote's run-twice identity check would
	// double every episode (DESIGN.md §13).
	var tr *obs.Trace
	if req.Trace && req.Experiment != "memory" {
		tr = obs.NewTrace()
	}
	var err error
	switch req.Experiment {
	case "table1":
		res.Apps, err = runItems(ctx, tr, table1Items(table1ParamsOf(req)))
	case "table2":
		res.Apps, err = runItems(ctx, tr, table2Items(table2ParamsOf(req)))
	case "table3":
		res.Apps, err = runItems(ctx, tr, table3Items(table3ParamsOf(req)))
	case "table4":
		res.Apps, err = runItems(ctx, tr, table4Items(table4ParamsOf(req)))
	case "table5":
		res.Apps, err = runItems(ctx, tr, table5Items(table5ParamsOf(req)))
	case "memory":
		res.Mem, err = runMemorySweep(ctx, memoryParamsOf(req), req.BudgetSweepKB)
	case "app":
		res.Apps, err = runAppGrid(ctx, tr, req)
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q", req.Experiment)
	}
	if err != nil {
		return nil, err
	}
	if res.Mem != nil {
		res.Metrics = res.Mem.metrics()
	} else {
		res.Metrics = Metrics(res.Apps)
	}
	if tr != nil {
		res.Trace = tr.JSON()
	}
	return res, nil
}

// runItem is one configuration of an experiment's run list.
type runItem struct {
	App   string
	Label string
	Cfg   apps.Config
}

// runItems executes each configuration in order, checking the context
// between them. A non-nil tr labels each item as a trace phase and
// rides into every parallel cluster through the Machine funnel; the
// sequential reference builds its cluster from sim.DefaultConfig and
// is untraced by construction.
func runItems(ctx context.Context, tr *obs.Trace, items []runItem) ([]*AppResults, error) {
	all := make([]*AppResults, 0, len(items))
	for _, it := range items {
		if tr != nil {
			tr.SetPhase(it.App + "/" + it.Label)
			it.Cfg.Machine.Trace = tr
		}
		res, err := RunAppCtx(ctx, it.App, it.Cfg, it.Label)
		if err != nil {
			return nil, err
		}
		all = append(all, res)
	}
	return all, nil
}

// sizeItems runs one app at each of the given problem sizes.
func sizeItems(app string, cfg apps.Config, sizes []Size) []runItem {
	items := make([]runItem, 0, len(sizes))
	for _, sz := range sizes {
		c := cfg
		c.N = sz.N
		items = append(items, runItem{App: app, Label: sz.Label, Cfg: c})
	}
	return items
}

// ---- Canned-experiment run lists ---------------------------------------
//
// Each tableNItems function is the single place the experiment's
// configuration grid is defined; Run resolves every canned request
// through them.

func table1Items(p Table1Params) []runItem {
	cfg := apps.Config{N: p.N, Procs: p.Procs, Steps: p.Steps}
	return updateItems(cfg, []int{20, 15, 11})
}

// updateItems runs moldyn once per interaction-list update interval.
func updateItems(cfg apps.Config, updates []int) []runItem {
	items := make([]runItem, 0, len(updates))
	for _, u := range updates {
		items = append(items, runItem{App: "moldyn",
			Label: fmt.Sprintf("Every %d iterations", u),
			Cfg:   cfg.WithKnob("update_every", u),
		})
	}
	return items
}

func table2Items(p Table2Params) []runItem {
	cfg := apps.Config{Procs: p.Procs, Steps: p.Steps}.WithKnob("partners", p.Partners)
	return sizeItems("nbf", cfg, table2Sizes(p))
}

func table2Sizes(p Table2Params) []Size {
	return []Size{
		{Label: fmt.Sprintf("%d x 1024", p.Scale), N: p.Scale * 1024},
		{Label: fmt.Sprintf("%d x 1000", p.Scale), N: p.Scale * 1000},
		{Label: fmt.Sprintf("%d x 1024", p.Scale/2), N: p.Scale / 2 * 1024},
	}
}

func table3Items(p Table3Params) []runItem {
	cfg := apps.Config{Procs: p.Procs, Steps: p.Steps}.WithKnob("nnz_row", p.NNZ)
	ucfg := cfg
	ucfg.Knobs = nil
	spmvSizes, unstructSizes := table3Sizes(p)
	return append(sizeItems("spmv", cfg, spmvSizes),
		sizeItems("unstruct", ucfg, unstructSizes)...)
}

func table3Sizes(p Table3Params) (spmvSizes, unstructSizes []Size) {
	spmvSizes = []Size{
		{Label: fmt.Sprintf("SPMV N = %d", p.N), N: p.N},
		{Label: fmt.Sprintf("SPMV N = %d", p.N/2), N: p.N / 2},
	}
	unstructSizes = []Size{
		{Label: fmt.Sprintf("Unstruct N = %d", p.N/2), N: p.N / 2},
		{Label: fmt.Sprintf("Unstruct N = %d", p.N/4), N: p.N / 4},
	}
	return spmvSizes, unstructSizes
}

func table4Items(p Table4Params) []runItem {
	tspCfg := apps.Config{Procs: p.Procs}.
		WithKnob("depth", p.Depth).WithKnob("batch", p.Batch)
	taskqCfg := apps.Config{Procs: p.Procs}.WithKnob("batch", p.ItemBatch)
	tspSizes := []Size{{Label: fmt.Sprintf("TSP, %d cities", p.Cities), N: p.Cities}}
	taskqSizes := []Size{{Label: fmt.Sprintf("TaskQ, %d items", p.Items), N: p.Items}}
	return append(sizeItems("tsp", tspCfg, tspSizes),
		sizeItems("taskq", taskqCfg, taskqSizes)...)
}

func table5Items(p Table5Params) []runItem {
	items := []runItem{
		{App: "moldyn", Label: fmt.Sprintf("moldyn, %d mol", p.MoldynN),
			Cfg: apps.Config{N: p.MoldynN, Steps: p.MoldynSteps}},
		{App: "nbf", Label: fmt.Sprintf("nbf, %d mol", p.NbfN),
			Cfg: apps.Config{N: p.NbfN, Steps: p.Steps}.WithKnob("partners", 40)},
		// far_per_row 0: the pure-banded matrix whose localized working
		// set is what the paged organization exists for.
		{App: "spmv", Label: fmt.Sprintf("spmv, %d rows", p.SpmvN),
			Cfg: apps.Config{N: p.SpmvN, Steps: p.Steps}.WithKnob("far_per_row", 0)},
	}
	for i := range items {
		items[i].Cfg.Procs = p.Procs
		if p.BudgetKB > 0 {
			items[i].Cfg = items[i].Cfg.WithKnob("table_budget_kb", p.BudgetKB)
		}
	}
	return items
}

// ---- Params <-> request mapping ----------------------------------------

func table1ParamsOf(req RunRequest) Table1Params {
	return Table1Params{N: req.Params["n"], Procs: req.Params["procs"], Steps: req.Params["steps"]}
}

func table2ParamsOf(req RunRequest) Table2Params {
	return Table2Params{Scale: req.Params["scale"], Procs: req.Params["procs"],
		Steps: req.Params["steps"], Partners: req.Params["partners"]}
}

func table3ParamsOf(req RunRequest) Table3Params {
	return Table3Params{N: req.Params["n"], NNZ: req.Params["nnz"],
		Procs: req.Params["procs"], Steps: req.Params["steps"]}
}

func table4ParamsOf(req RunRequest) Table4Params {
	return Table4Params{Cities: req.Params["cities"], Items: req.Params["items"],
		Procs: req.Params["procs"], Depth: req.Params["depth"],
		Batch: req.Params["batch"], ItemBatch: req.Params["item_batch"]}
}

func table5ParamsOf(req RunRequest) Table5Params {
	return Table5Params{Procs: req.Params["procs"], BudgetKB: req.Params["budget_kb"],
		MoldynN: req.Params["n"], NbfN: req.Params["nbf"], SpmvN: req.Params["spmv"],
		MoldynSteps: req.Params["moldyn_steps"], Steps: req.Params["steps"]}
}

func memoryParamsOf(req RunRequest) MemorySweepParams {
	return MemorySweepParams{N: req.Params["n"], Procs: req.Params["procs"]}
}

// Table1Request canonically encodes one table1 execution.
func Table1Request(p Table1Params) RunRequest {
	return RunRequest{Experiment: "table1",
		Params: map[string]int{"n": p.N, "procs": p.Procs, "steps": p.Steps}}
}

// Table2Request canonically encodes one table2 execution.
func Table2Request(p Table2Params) RunRequest {
	return RunRequest{Experiment: "table2",
		Params: map[string]int{"scale": p.Scale, "procs": p.Procs, "steps": p.Steps, "partners": p.Partners}}
}

// Table3Request canonically encodes one table3 execution.
func Table3Request(p Table3Params) RunRequest {
	return RunRequest{Experiment: "table3",
		Params: map[string]int{"n": p.N, "nnz": p.NNZ, "procs": p.Procs, "steps": p.Steps}}
}

// Table4Request canonically encodes one table4 execution.
func Table4Request(p Table4Params) RunRequest {
	return RunRequest{Experiment: "table4",
		Params: map[string]int{"cities": p.Cities, "items": p.Items, "procs": p.Procs,
			"depth": p.Depth, "batch": p.Batch, "item_batch": p.ItemBatch}}
}

// Table5Request canonically encodes one table5 execution.
func Table5Request(p Table5Params) RunRequest {
	return RunRequest{Experiment: "table5",
		Params: map[string]int{"procs": p.Procs, "budget_kb": p.BudgetKB,
			"n": p.MoldynN, "nbf": p.NbfN, "spmv": p.SpmvN,
			"moldyn_steps": p.MoldynSteps, "steps": p.Steps}}
}

// MemoryRequest canonically encodes one memory-sweep execution,
// optionally extended with the table_budget_kb axis.
func MemoryRequest(p MemorySweepParams, budgetSweepKB []int) RunRequest {
	return RunRequest{Experiment: "memory",
		Params:        map[string]int{"n": p.N, "procs": p.Procs},
		BudgetSweepKB: append([]int(nil), budgetSweepKB...)}
}

// ---- The memory experiment's run side ----------------------------------

// runMemorySweep computes the §9 capacity sweep's structured data: the
// moldyn and banded-spmv budget grids, the anecdote run twice and
// verified bit-identical, and the optional table_budget_kb axis.
func runMemorySweep(ctx context.Context, sp MemorySweepParams, budgetSweepKB []int) (*MemSweepData, error) {
	n, procs := sp.N, sp.Procs
	data := &MemSweepData{}

	moldynWork := mem.TablePages(n)
	for _, budget := range memBudgets(n, procs, moldynWork) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan := mem.PlanTable(budget, n, procs, moldynWork)
		p := moldyn.DefaultParams(n, procs)
		p.TableKind = plan.Kind
		p.TableCachePages = plan.CachePages
		r := moldyn.RunChaos(moldyn.Generate(p))
		data.Moldyn = append(data.Moldyn, MemBudgetRow{
			BudgetKB:   budget >> 10,
			Plan:       plan.String(),
			TtableMsgs: int64(r.Detail["msgs.chaos.ttable"]),
			TtableMB:   r.Detail["mb.chaos.ttable"],
			PeakKB:     r.MaxPeakMB() * 1e3,
		})
	}

	sn := 4 * n
	spp := spmv.DefaultParams(sn, procs)
	spp.FarPerRow = 0
	spmvWork := spp.WorkTablePages()
	for _, budget := range memBudgets(sn, procs, spmvWork) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan := mem.PlanTable(budget, sn, procs, spmvWork)
		p := spp
		p.TableKind = plan.Kind
		p.TableCachePages = plan.CachePages
		r := spmv.RunChaos(spmv.Generate(p))
		data.Spmv = append(data.Spmv, SpmvBudgetRow{
			BudgetKB: budget >> 10,
			Plan:     plan.String(),
			TableKB:  float64(r.MemCat(chaos.MemCatTable).PeakBytes) / 1e3,
			PeakKB:   r.MaxPeakMB() * 1e3,
		})
	}

	// The anecdote, run twice: the assertion and the bit-identity are
	// both part of the sweep's contract.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := RunMemAnecdote()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep2, err := RunMemAnecdote()
	if err != nil {
		return nil, err
	}
	if *rep != *rep2 {
		return nil, fmt.Errorf("anecdote not byte-identical across runs: %+v vs %+v", rep, rep2)
	}
	data.Anecdote = *rep

	// The table_budget_kb axis: the anecdote configuration re-planned
	// under each budget. Crossing mem.ReplicatedBytes(N) flips the
	// policy from the replicated table to the forced distributed one —
	// the crossover the scenario bands pin.
	for _, kb := range budgetSweepKB {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := MoldynAnecdoteParams()
		plan := mem.PlanTable(int64(kb)<<10, p.N, p.Procs, mem.TablePages(p.N))
		p.TableKind = plan.Kind
		p.TableCachePages = plan.CachePages
		r := moldyn.RunChaos(moldyn.Generate(p))
		data.Budget = append(data.Budget, BudgetPoint{
			BudgetKB:   kb,
			PlanKind:   int(plan.Kind),
			Plan:       plan.String(),
			TtableMsgs: int64(r.Detail["msgs.chaos.ttable"]),
			TtableMB:   r.Detail["mb.chaos.ttable"],
			PeakKB:     r.MaxPeakMB() * 1e3,
		})
	}
	return data, nil
}

// metrics flattens the memory experiment's asserted numbers: the
// anecdote's four plus, per budget-axis point, the plan ordinal and
// the traffic/footprint the plan produced.
func (d *MemSweepData) metrics() map[string]float64 {
	out := map[string]float64{
		"anecdote/ttable_msgs": float64(d.Anecdote.TtableMsgs),
		"anecdote/ttable_mb":   float64(d.Anecdote.TtableBytes) / 1e6,
		"anecdote/peak_kb":     d.Anecdote.PeakKB,
		"anecdote/time_s":      d.Anecdote.TimeSec,
	}
	for _, bp := range d.Budget {
		prefix := fmt.Sprintf("anecdote/budget_kb=%d/", bp.BudgetKB)
		out[prefix+"plan"] = float64(bp.PlanKind)
		out[prefix+"ttable_mb"] = bp.TtableMB
		out[prefix+"ttable_msgs"] = float64(bp.TtableMsgs)
		out[prefix+"peak_kb"] = bp.PeakKB
	}
	return out
}

// ---- The generic app experiment ----------------------------------------

// runAppGrid executes the cross product of the request's sweep values
// (if any) and its procs list, each configuration verified across all
// four backends.
func runAppGrid(ctx context.Context, tr *obs.Trace, req RunRequest) ([]*AppResults, error) {
	sweepVals := []int{0}
	if req.Sweep != nil {
		sweepVals = req.Sweep.Values
	}
	var all []*AppResults
	for _, sv := range sweepVals {
		for _, procs := range req.Procs {
			cfg := apps.Config{N: req.N, Procs: procs, Steps: req.Steps,
				Seed: req.Seed, Machine: req.Machine}
			cfg.Machine.Trace = tr
			for k, v := range req.Knobs {
				cfg = cfg.WithKnob(k, v)
			}
			label := fmt.Sprintf("%d procs", procs)
			if req.Sweep != nil {
				label = fmt.Sprintf("%s=%d, %s", req.Sweep.Axis, sv, label)
				switch req.Sweep.Axis {
				case "n":
					cfg.N = sv
				case "steps":
					cfg.Steps = sv
				case "latency_us":
					cfg.Machine.LatencyUS = sv
				case "bandwidth_mbs":
					cfg.Machine.BandwidthMBs = sv
				default:
					cfg = cfg.WithKnob(req.Sweep.Axis, sv)
				}
			}
			if tr != nil {
				tr.SetPhase(req.App + "/" + label)
			}
			res, err := RunAppCtx(ctx, req.App, cfg, label)
			if err != nil {
				return nil, err
			}
			all = append(all, res)
		}
	}
	return all, nil
}
