package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer was made; Parent indexes the enclosing span (-1 for an op
// root), resolved after the pass by interval containment (see
// resolveParents). N is the key count of a batch call.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	N      int    `json:"n,omitempty"`
}

// tracer keeps a traced pass's spans in memory. A nil tracer records
// nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time

	mu sync.Mutex
	//repro:guardedby mu
	op int
	//repro:guardedby mu
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// noop ends a span of the nil tracer.
func noop() {}

// setOp tags the spans that end from now on with op id i (batch workloads
// run one op at a time).
func (t *tracer) setOp(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
}

// begin starts a span and returns the function that ends it.
func (t *tracer) begin(name string) func() { return t.beginN(name, 0) }

// beginN starts a span of a batch call over n keys.
func (t *tracer) beginN(name string, n int) func() {
	if t == nil {
		return noop
	}
	start := time.Since(t.epoch)
	return func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Op: t.op, Start: int64(start), End: int64(end), Parent: -1, N: n})
		t.mu.Unlock()
	}
}

// add records a finished span of an explicit op (serve-mixed requests run
// two at a time, each its own op).
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since is the tracer clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// take returns the recorded spans, parents resolved.
func (t *tracer) take() []span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	resolveParents(spans)
	return spans
}

// level is a span's depth in the layer stack: the op root, the calls the
// benchmark makes (session, experiments, search, HTTP), the mounted store
// backend, and the wire client of each replica beneath it.
func level(name string) int {
	switch {
	case name == "op":
		return 0
	case strings.HasPrefix(name, "store."):
		return 2
	case strings.HasPrefix(name, "remote."):
		return 3
	default:
		return 1
	}
}

// resolveParents sets each span's Parent to the innermost span of the same
// op at a shallower level whose interval contains it (latest start wins
// among equals); op roots and orphans keep -1. Store calls come from
// worker goroutines the benchmark cannot tag, so containment is the link.
func resolveParents(spans []span) {
	byOp := map[int][]int{}
	for i := range spans {
		byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
	}
	for _, idx := range byOp {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
		for _, i := range idx {
			s := &spans[i]
			lv := level(s.Name)
			best, bestLv := -1, -1
			for _, j := range idx {
				c := &spans[j]
				if c.Start > s.Start {
					break
				}
				cl := level(c.Name)
				if j == i || cl >= lv || c.End < s.End {
					continue
				}
				if cl >= bestLv {
					best, bestLv = j, cl
				}
			}
			s.Parent = best
		}
	}
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals (two workers' store calls overlap, so children
// are merged, not summed).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
		}
		self[i] = (s.End - s.Start) - unionLen(iv, s.Start, s.End)
	}
	return self
}

// unionLen is the total length of the union of the intervals, clipped to
// [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// spanStats aggregates a traced pass: per-name call counts, summed
// durations, summed self times and summed batch sizes.
type spanStats struct {
	count  map[string]int
	dur    map[string]int64
	self   map[string]int64
	n      map[string]int
	ops    int   // op roots
	opWall int64 // summed op root durations
}

func summarize(spans []span) spanStats {
	st := spanStats{count: map[string]int{}, dur: map[string]int64{}, self: map[string]int64{}, n: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		st.count[s.Name]++
		st.dur[s.Name] += s.End - s.Start
		st.self[s.Name] += self[i]
		st.n[s.Name] += s.N
		if s.Name == "op" {
			st.ops++
			st.opWall += s.End - s.Start
		}
	}
	return st
}

// meanDur is the mean duration of the named spans in the given unit.
func (st spanStats) meanDur(name string, unit time.Duration) float64 {
	return ratio(float64(st.dur[name]), float64(st.count[name])*float64(unit))
}

// selfPerOp sums the self time of the named spans, per op, in seconds.
func (st spanStats) selfPerOp(names ...string) float64 {
	var total int64
	for _, n := range names {
		total += st.self[n]
	}
	return ratio(float64(total)/1e9, float64(st.ops))
}

// gapPct is the share of op wall time no layer span covers: end to end
// minus the layer self times, which is the op roots' own self time. Two
// workers' store calls overlap, so their self times summed outright would
// exceed the wall; the union inside selfTimes counts each instant once.
func (st spanStats) gapPct() float64 {
	return 100 * ratio(float64(st.self["op"]), float64(st.opWall))
}
