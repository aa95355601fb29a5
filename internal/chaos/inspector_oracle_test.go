package chaos

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// oracleLookupBatch is the materializing translation Inspect used to
// run: it builds the full []Loc of the stream while charging it.
func oracleLookupBatch(t *TransTable, p *sim.Proc, globals []int) []Loc {
	cfg := p.Config()
	t.chargeStorage(p)
	out := make([]Loc, len(globals))
	remote := make([]int, p.NProcs())
	nremote := 0
	for i, g := range globals {
		out[i] = Loc{Proc: t.owner[g], Off: t.local[g]}
		switch t.kind {
		case Replicated:
		case Distributed:
			if q := blockOwner(g, t.n, t.nprocs); q != p.ID() {
				remote[q]++
				nremote++
			}
		case Paged:
			page := g / TablePageEntries
			if q := blockOwner(g, t.n, t.nprocs); q != p.ID() && !t.cached[p.ID()][page] {
				t.cachePage(p, page)
				remote[q] += TablePageEntries
				nremote++
			}
		}
	}
	p.Advance(t.LookupUS * float64(len(globals)))
	if nremote > 0 {
		done := p.Clock()
		t0 := done
		var msgs, bytes int64
		for q, entries := range remote {
			if entries == 0 {
				continue
			}
			reqB := TableEntryBytes * entries
			respB := TableEntryBytes * entries
			if t.kind == Paged {
				reqB = TableEntryBytes * (entries / TablePageEntries)
			}
			cl := p.Cluster()
			rtt := cl.LinkLatencyUS(p.ID(), q) + cl.LinkXferUS(p.ID(), q, reqB) +
				0.05*float64(entries)*cl.CPUFactor(q) +
				cl.LinkLatencyUS(q, p.ID()) + cl.LinkXferUS(q, p.ID(), respB)
			if t0+rtt > done {
				done = t0 + rtt
			}
			msgs += cfg.Frags(reqB) + cfg.Frags(respB)
			bytes += cfg.WireBytes(reqB) + cfg.WireBytes(respB)
		}
		p.AdvanceTo(done)
		p.Cluster().Stats.CountP(p.ID(), "chaos.ttable", msgs, bytes)
	}
	return out
}

// oracleInspect is the inspector before the charge-only translate: a
// sort-based dedup, and under TranslateAll a materializing lookup of the
// whole stream whose result is discarded.
func oracleInspect(p *sim.Proc, tag int, globals []int, tt *TransTable, cost InspectorCost) *Schedule {
	me := p.ID()
	nprocs := p.NProcs()
	n := tt.N()
	if cost.TranslateAll {
		oracleLookupBatch(tt, p, globals)
	}
	mem := &p.Cluster().Mem
	mem.Alloc(me, MemCatInspector, int64(n))
	seen := make([]bool, n)
	distinct := make([]int, 0, len(globals))
	for _, g := range globals {
		if !seen[g] {
			seen[g] = true
			distinct = append(distinct, g)
		}
	}
	sort.Ints(distinct)
	p.Advance(cost.HashUSPerEntry * float64(len(globals)))
	var locs []Loc
	if cost.TranslateAll {
		locs = tt.LookupLocal(distinct)
	} else {
		locs = oracleLookupBatch(tt, p, distinct)
	}
	sch := &Schedule{
		Me:       me,
		NProcs:   nprocs,
		RecvFrom: make([][]int32, nprocs),
		RecvSlot: make([][]int32, nprocs),
		SendTo:   make([][]int32, nprocs),
		localOf:  make([]int32, n),
	}
	for i := range sch.localOf {
		sch.localOf[i] = -1
	}
	own := 0
	for g := 0; g < n; g++ {
		if tt.owner[g] == me {
			sch.localOf[g] = tt.local[g]
			own++
		}
	}
	sch.OwnCount = own
	ghost := int32(own)
	for i, g := range distinct {
		if locs[i].Proc == me {
			continue
		}
		q := locs[i].Proc
		sch.RecvFrom[q] = append(sch.RecvFrom[q], locs[i].Off)
		sch.RecvSlot[q] = append(sch.RecvSlot[q], ghost)
		sch.localOf[g] = ghost
		ghost++
	}
	sch.Ghosts = int(ghost) - own
	p.Advance(cost.BuildUSPerElem * float64(len(distinct)))
	mem.Free(me, MemCatInspector, int64(n))
	type reqMsg struct{ wants []int32 }
	for q := 0; q < nprocs; q++ {
		if q == me {
			continue
		}
		p.Send(q, "chaos.sched", tag, &reqMsg{wants: sch.RecvFrom[q]}, 4*len(sch.RecvFrom[q]))
	}
	p.RecvEach("chaos.sched", tag, nprocs-1, func(from int, payload any) {
		sch.SendTo[from] = payload.(*reqMsg).wants
	})
	mem.Alloc(me, MemCatSched, sch.MemBytes())
	return sch
}

// inspectWorld is one cluster's record of two successive collective
// inspector runs (the second sees a warm or evicted Paged cache).
type inspectWorld struct {
	scheds [][2]*Schedule
	clocks []float64
	stats  map[string]sim.CatStat
	mem    map[sim.MemKey]sim.MemStat
	peaks  []sim.MemStat
}

// TestInspectMatchesOracle holds the charge-only inspector to the one it
// replaced: on random reference streams with duplicates, over every
// table organization (Paged with an unbounded and a one-page cache) and
// both translation orders, the schedules, per-processor clocks, traffic
// categories and memory peaks are identical.
func TestInspectMatchesOracle(t *testing.T) {
	type table struct {
		kind       TableKind
		cachePages int
	}
	tables := []table{{Replicated, 0}, {Distributed, 0}, {Paged, 0}, {Paged, 1}}
	const nprocs = 4
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1500 + rng.Intn(3000) // one to five table pages, the last partial
		part := &Partition{Owner: make([]int, n), NProcs: nprocs}
		for g := range part.Owner {
			part.Owner[g] = rng.Intn(nprocs)
		}
		streams := make([][2][]int, nprocs)
		for me := range streams {
			for r := range streams[me] {
				refs := make([]int, rng.Intn(4*n)) // may be empty
				hot := 1 + rng.Intn(n)             // duplicates concentrate below hot
				for i := range refs {
					refs[i] = rng.Intn(hot)
					if rng.Intn(4) == 0 {
						refs[i] = rng.Intn(n)
					}
				}
				streams[me][r] = refs
			}
		}
		for _, tb := range tables {
			for _, all := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/%v/cache=%d/translateAll=%v", seed, tb.kind, tb.cachePages, all)
				cost := InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: all}
				run := func(inspect func(*sim.Proc, int, []int, *TransTable, InspectorCost) *Schedule) inspectWorld {
					tt := NewTransTable(part, tb.kind)
					tt.CachePages = tb.cachePages
					c := sim.NewCluster(sim.DefaultConfig(nprocs))
					w := inspectWorld{scheds: make([][2]*Schedule, nprocs), clocks: make([]float64, nprocs)}
					c.Run(func(p *sim.Proc) {
						for r := range 2 {
							w.scheds[p.ID()][r] = inspect(p, r, streams[p.ID()][r], tt, cost)
						}
						w.clocks[p.ID()] = p.Clock()
					})
					w.stats = c.Stats.Categories()
					w.mem = c.Mem.Snapshot()
					w.peaks, _ = c.Mem.ProcPeaks()
					return w
				}
				got, want := run(Inspect), run(oracleInspect)
				for me := range nprocs {
					for r := range 2 {
						if !reflect.DeepEqual(got.scheds[me][r], want.scheds[me][r]) {
							t.Fatalf("%s: proc %d run %d: schedule differs from the oracle's", name, me, r)
						}
					}
				}
				if !reflect.DeepEqual(got.clocks, want.clocks) {
					t.Fatalf("%s: clocks %v, oracle %v", name, got.clocks, want.clocks)
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Fatalf("%s: traffic %v, oracle %v", name, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.mem, want.mem) {
					t.Fatalf("%s: memory ledger %v, oracle %v", name, got.mem, want.mem)
				}
				if !reflect.DeepEqual(got.peaks, want.peaks) {
					t.Fatalf("%s: footprints %v, oracle %v", name, got.peaks, want.peaks)
				}
			}
		}
	}
}
