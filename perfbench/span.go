package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own code. Parent is the span that caused it (0 for a
// root); Req is the content address of the request it served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark writes them out
// at exit. A nil recorder is the untraced run: every method is a no-op,
// so the measured passes carry no tracing cost.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall instant to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add records a finished span and returns its id (0 when untraced).
func (r *recorder) add(parent int, name, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: r.at(start), End: r.at(end)})
	return id
}

// open is a span whose id is reserved before it ends, so children
// recorded while it runs can name it as their parent.
type open struct {
	r  *recorder
	id int
}

// begin reserves a span; end (or endAs) records its end time. Untraced,
// it returns nil, on which every open method is a no-op.
func (r *recorder) begin(parent int, name, req string) *open {
	if r == nil {
		return nil
	}
	now := time.Now()
	return &open{r: r, id: r.add(parent, name, req, now, now)}
}

// ID is the span's id for children to name as their parent.
func (o *open) ID() int {
	if o == nil {
		return 0
	}
	return o.id
}

// end records the span's end time.
func (o *open) end() { o.endAs("") }

// endAs ends the span and sets its request address, for spans whose
// address is only known once the call they time returns.
func (o *open) endAs(req string) {
	if o == nil {
		return
	}
	now := o.r.at(time.Now())
	o.r.mu.Lock()
	s := &o.r.spans[o.id-1]
	s.End = now
	if req != "" {
		s.Req = req
	}
	o.r.mu.Unlock()
}

// mark is the number of spans recorded so far, for since.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// since copies the spans recorded after a mark.
func (r *recorder) since(m int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[m:]...)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf maps a span name to the repo module it times: the name's
// first dot-separated element, except that cache.disk.* is the
// cache/disk module.
func layerOf(name string) string {
	if strings.HasPrefix(name, "cache.disk.") {
		return "cache/disk"
	}
	head, _, _ := strings.Cut(name, ".")
	return head
}

// interval is a half-open [lo, hi) stretch of the recorder's clock.
type interval struct{ lo, hi int64 }

// covered is the total length of the union of the intervals clipped to
// [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	started := false
	for _, iv := range clipped {
		if !started || iv.lo > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = iv.lo, iv.hi, true
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// selfTimes sums, per layer, each span's duration minus the part of
// it that its child spans cover (children may overlap one another, so
// the covered part is their union, not their sum).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := s.dur() - covered(children[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += time.Duration(self)
	}
	return out
}

// uncoveredShare is the share of [lo, hi) that no span covers.
func uncoveredShare(spans []span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	return 1 - float64(covered(ivs, lo, hi))/float64(hi-lo)
}
