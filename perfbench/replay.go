package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/bench"
)

// appItem is one application configuration a request runs.
type appItem struct {
	app, label string
	cfg        apps.Config
}

// replayItems lists the application configurations bench.Run executes
// for a request, in its order and with its labels. bench keeps these
// grids private, so they are restated here; the replay's metrics must
// equal the request's, which catches any drift between the two.
func replayItems(req bench.RunRequest) ([]appItem, error) {
	p := req.Params
	sized := func(app string, cfg apps.Config, sizes ...any) []appItem {
		var out []appItem
		for i := 0; i < len(sizes); i += 2 {
			c := cfg
			c.N = sizes[i+1].(int)
			out = append(out, appItem{app, sizes[i].(string), c})
		}
		return out
	}
	switch req.Experiment {
	case "table1":
		cfg := apps.Config{N: p["n"], Procs: p["procs"], Steps: p["steps"]}
		var out []appItem
		for _, u := range []int{20, 15, 11} {
			out = append(out, appItem{"moldyn", fmt.Sprintf("Every %d iterations", u), cfg.WithKnob("update_every", u)})
		}
		return out, nil
	case "table2":
		cfg := apps.Config{Procs: p["procs"], Steps: p["steps"]}.WithKnob("partners", p["partners"])
		s := p["scale"]
		return sized("nbf", cfg,
			fmt.Sprintf("%d x 1024", s), s*1024,
			fmt.Sprintf("%d x 1000", s), s*1000,
			fmt.Sprintf("%d x 1024", s/2), s/2*1024), nil
	case "table3":
		cfg := apps.Config{Procs: p["procs"], Steps: p["steps"]}.WithKnob("nnz_row", p["nnz"])
		ucfg := cfg
		ucfg.Knobs = nil
		n := p["n"]
		return append(sized("spmv", cfg,
			fmt.Sprintf("SPMV N = %d", n), n,
			fmt.Sprintf("SPMV N = %d", n/2), n/2),
			sized("unstruct", ucfg,
				fmt.Sprintf("Unstruct N = %d", n/2), n/2,
				fmt.Sprintf("Unstruct N = %d", n/4), n/4)...), nil
	case "table4":
		tsp := apps.Config{Procs: p["procs"]}.WithKnob("depth", p["depth"]).WithKnob("batch", p["batch"])
		taskq := apps.Config{Procs: p["procs"]}.WithKnob("batch", p["item_batch"])
		return append(sized("tsp", tsp, fmt.Sprintf("TSP, %d cities", p["cities"]), p["cities"]),
			sized("taskq", taskq, fmt.Sprintf("TaskQ, %d items", p["items"]), p["items"])...), nil
	case "table5":
		out := []appItem{
			{"moldyn", fmt.Sprintf("moldyn, %d mol", p["n"]), apps.Config{N: p["n"], Steps: p["moldyn_steps"]}},
			{"nbf", fmt.Sprintf("nbf, %d mol", p["nbf"]), apps.Config{N: p["nbf"], Steps: p["steps"]}.WithKnob("partners", 40)},
			{"spmv", fmt.Sprintf("spmv, %d rows", p["spmv"]), apps.Config{N: p["spmv"], Steps: p["steps"]}.WithKnob("far_per_row", 0)},
		}
		for i := range out {
			out[i].cfg.Procs = p["procs"]
			if b := p["budget_kb"]; b > 0 {
				out[i].cfg = out[i].cfg.WithKnob("table_budget_kb", b)
			}
		}
		return out, nil
	case "app":
		return appGridItems(req), nil
	}
	return nil, fmt.Errorf("no application replay for experiment %q", req.Experiment)
}

// appGridItems is the generic app experiment's grid: the sweep values
// crossed with the procs list.
func appGridItems(req bench.RunRequest) []appItem {
	sweepVals := []int{0}
	if req.Sweep != nil {
		sweepVals = req.Sweep.Values
	}
	var out []appItem
	for _, sv := range sweepVals {
		for _, procs := range req.Procs {
			cfg := apps.Config{N: req.N, Procs: procs, Steps: req.Steps, Seed: req.Seed, Machine: req.Machine}
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
			out = append(out, appItem{req.App, label, cfg})
		}
	}
	return out
}

// variants are the registry's four backend slots, in RunAllCtx's order.
var variants = []string{"seq", "chaos", "tmk", "tmk-opt"}

// appCost is one (application, backend) pair's replay totals.
type appCost struct {
	hostS, allocMB, msgs float64
}

// replayStats accumulates one workload's serial replay.
type replayStats struct {
	cost    map[string]*appCost // key: app + "." + variant
	newMS   map[string]float64  // key: app
	verifyS float64
	configs int
}

func newReplayStats() *replayStats {
	return &replayStats{cost: map[string]*appCost{}, newMS: map[string]float64{}}
}

func (s *replayStats) add(app, variant string, host time.Duration, allocBytes uint64, msgs int64) {
	c := s.cost[app+"."+variant]
	if c == nil {
		c = &appCost{}
		s.cost[app+"."+variant] = c
	}
	c.hostS += host.Seconds()
	c.allocMB += float64(allocBytes) / 1e6
	c.msgs += float64(msgs)
}

// totalAlloc is the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// replay re-executes a request's application configurations serially
// through the public calls apps.RunAllCtx makes — apps.New, the four
// Workload methods, apps.VerifyEqual — timing each, and checks that
// the replayed metrics equal the ones bench.Run produced for the
// request.
func replay(rec *recorder, st *replayStats, key string, req bench.RunRequest, res *bench.RunResult) error {
	items, err := replayItems(req)
	if err != nil {
		return err
	}
	var all []*bench.AppResults
	for _, it := range items {
		sp := rec.begin(0, "apps."+it.app+".new", key)
		t0 := time.Now()
		w, err := apps.New(it.app, it.cfg)
		st.newMS[it.app] += float64(time.Since(t0).Microseconds()) / 1e3
		sp.end()
		if err != nil {
			return err
		}
		vs := &apps.VariantSet{}
		slots := []struct {
			run  func() *apps.Result
			slot **apps.Result
		}{{w.Sequential, &vs.Seq}, {w.Chaos, &vs.Chaos}, {w.TmkBase, &vs.Base}, {w.TmkOpt, &vs.Opt}}
		for i, b := range slots {
			a0 := totalAlloc()
			sp := rec.begin(0, "apps."+it.app+"."+variants[i], key)
			t0 := time.Now()
			*b.slot = b.run()
			host := time.Since(t0)
			sp.end()
			st.add(it.app, variants[i], host, totalAlloc()-a0, (*b.slot).Messages)
		}
		sp = rec.begin(0, "apps.verify", key)
		t0 = time.Now()
		for _, r := range vs.Parallel() {
			if err := apps.VerifyEqual(vs.Seq, r); err != nil {
				sp.end()
				return fmt.Errorf("replay %s %s %s: %w", it.app, it.label, r.System, err)
			}
		}
		st.verifyS += time.Since(t0).Seconds()
		sp.end()
		for _, r := range vs.Parallel() {
			if r.TimeSec > 0 {
				r.Speedup = vs.Seq.TimeSec / r.TimeSec
			}
		}
		vs.Seq.Speedup = 1
		all = append(all, &bench.AppResults{App: it.app, Label: it.label, VariantSet: vs})
		st.configs++
	}
	return sameMetrics(bench.Metrics(all), res.Metrics)
}

// sameMetrics requires bit-identical metric maps.
func sameMetrics(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("replay produced %d metrics, the request %d", len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(v) {
			return fmt.Errorf("replay metric %s = %v, the request's %v", k, g, v)
		}
	}
	return nil
}

// replayAnecdote times the memory experiment's anecdote from outside:
// bench.RunMemAnecdote as a whole, then its moldyn CHAOS configuration
// through moldyn.Generate and RunChaos, the calls RunMemAnecdote makes.
// The anecdote's configuration is not an apps.Config (it sets table and
// message-size parameters no registry knob reaches), so this is the
// moldyn/chaos replay for the memory workload. Both must reproduce the
// request's anecdote.
func replayAnecdote(rec *recorder, st *replayStats, key string, res *bench.RunResult) (anecdote time.Duration, err error) {
	if res.Mem == nil {
		return 0, fmt.Errorf("memory result carries no sweep data")
	}
	want := res.Mem.Anecdote
	sp := rec.begin(0, "bench.anecdote", key)
	t0 := time.Now()
	rep, err := bench.RunMemAnecdote()
	anecdote = time.Since(t0)
	sp.end()
	if err != nil {
		return 0, err
	}
	if *rep != want {
		return 0, fmt.Errorf("RunMemAnecdote %+v, the request's anecdote %+v", *rep, want)
	}

	sp = rec.begin(0, "apps.moldyn.new", key)
	t0 = time.Now()
	w := moldyn.Generate(bench.MoldynAnecdoteParams())
	st.newMS["moldyn"] += float64(time.Since(t0).Microseconds()) / 1e3
	sp.end()
	a0 := totalAlloc()
	sp = rec.begin(0, "apps.moldyn.chaos", key)
	t0 = time.Now()
	r := moldyn.RunChaos(w)
	host := time.Since(t0)
	sp.end()
	st.add("moldyn", "chaos", host, totalAlloc()-a0, r.Messages)
	st.configs++
	if r.TimeSec != want.TimeSec || int64(r.Detail["msgs.chaos.ttable"]) != want.TtableMsgs {
		return 0, fmt.Errorf("anecdote replay time %v / %v table msgs, the request's %v / %v",
			r.TimeSec, r.Detail["msgs.chaos.ttable"], want.TimeSec, want.TtableMsgs)
	}
	return anecdote, nil
}
