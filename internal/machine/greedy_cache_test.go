package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mutex"
)

// fullGreedy is GreedyCost without its cache: every decision rescores
// every live process, as GreedyCost did before it kept scores across
// decisions. With a prefix it first follows it the way PrefixGreedy does.
// It is the oracle the caching Next must agree with.
type fullGreedy struct {
	prefix []int
	pos    int
	rr     int
	age    []int
}

func (f *fullGreedy) Name() string { return "full-greedy" }

func (f *fullGreedy) Next(s *System) int {
	for f.pos < len(f.prefix) {
		i := f.prefix[f.pos]
		f.pos++
		if i >= 0 && i < s.N() && !s.Halted(i) {
			return i
		}
	}
	n := s.N()
	if f.age == nil {
		f.age = make([]int, n)
	}
	var g GreedyCost
	best, bestScore := -1, minScore
	for k := 0; k < n; k++ {
		i := (f.rr + k) % n
		if s.Halted(i) {
			continue
		}
		if f.age[i] >= 3*n {
			best = i
			break
		}
		if sc := g.score(s, i); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if best >= 0 {
		f.rr = (best + 1) % n
		for i := range f.age {
			f.age[i]++
		}
		f.age[best] = 0
	}
	return best
}

// cacheOracle asks the caching scheduler and the full rescoring for every
// decision and records the first one on which they differ, or on which a
// score the cache holds as current differs from a fresh one. Without a
// meddler it schedules their choice. A meddler steps the System behind
// their backs: sometimes it schedules a live process other than their
// choice, and sometimes it steps the process just scheduled once more
// before the next decision, so two steps ran since it.
type cacheOracle struct {
	cached, full Scheduler
	greedy       *GreedyCost // cached, or its completion tail
	meddle       *rand.Rand
	last         int // the process the previous decision scheduled
	decisions    int
	disagreed    error
}

func (o *cacheOracle) Name() string { return "cache-oracle(" + o.cached.Name() + ")" }

func (o *cacheOracle) Next(s *System) int {
	if o.meddle != nil && o.last >= 0 && !s.Halted(o.last) && o.meddle.Intn(5) == 0 {
		if _, err := s.Step(o.last); err != nil {
			o.disagreed = fmt.Errorf("decision %d: meddling step of process %d: %v", o.decisions, o.last, err)
			return -1
		}
		if s.AllHalted() {
			return -1
		}
	}
	got, want := o.cached.Next(s), o.full.Next(s)
	if got != want {
		o.disagreed = fmt.Errorf("decision %d: cached lookahead chose process %d, full rescoring chose %d", o.decisions, got, want)
		return -1
	}
	for i, p := range o.greedy.procs {
		if !p.stale && !p.halted {
			if fresh := o.greedy.score(s, i); p.score != fresh {
				o.disagreed = fmt.Errorf("decision %d: process %d's cached score is %d, a fresh one %d", o.decisions, i, p.score, fresh)
				return -1
			}
		}
	}
	o.decisions++
	o.last = got
	if o.meddle != nil && got >= 0 && o.meddle.Intn(5) == 0 {
		for k := 1; k < s.N(); k++ {
			if other := (got + k) % s.N(); !s.Halted(other) {
				o.last = other
				break
			}
		}
	}
	return o.last
}

// TestGreedyCacheMatchesFullRescoring: at every decision the caching Next
// picks the process a full rescoring of every live process picks, for
// every registered algorithm at n = 2 to 32, in three kinds of run:
// greedy-cost itself; PrefixGreedy after four seeded random prefixes
// (the search candidates' shape); and a meddler that steps a process
// other than the chosen one, or the chosen one twice, between two
// decisions, which the cache must notice through the System's step count
// and last actor.
func TestGreedyCacheMatchesFullRescoring(t *testing.T) {
	ns := []int{2, 4, 8, 16, 32}
	if testing.Short() {
		ns = ns[:4]
	}
	decisions := 0
	for _, name := range append(mutex.Names(), "tas", "mcs") {
		for _, n := range ns {
			if name == mutex.NameDekker && n != 2 {
				continue // Dekker's algorithm is two-process only
			}
			f, err := oracleFactory(name, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			g := NewGreedyCost()
			oracles := []*cacheOracle{{cached: g, greedy: g, full: &fullGreedy{}}}
			for k := 0; k < 4; k++ {
				prefix := make([]int, 2*n)
				for i := range prefix {
					prefix[i] = rng.Intn(n)
				}
				pg := NewPrefixGreedy(prefix)
				oracles = append(oracles, &cacheOracle{cached: pg, greedy: pg.tail, full: &fullGreedy{prefix: prefix}})
			}
			g = NewGreedyCost()
			oracles = append(oracles, &cacheOracle{cached: g, greedy: g, full: &fullGreedy{}, meddle: rand.New(rand.NewSource(int64(n)))})
			for _, o := range oracles {
				o.last = -1
				s := NewSystem(f)
				s.Stream(nil, false)
				_, err := Run(s, o, DefaultHorizon(n))
				if o.disagreed != nil {
					t.Fatalf("%s n=%d, %s (meddling %v): %v", name, n, o.cached.Name(), o.meddle != nil, o.disagreed)
				}
				if err != nil && !(o.meddle != nil && s.AllHalted()) {
					t.Fatalf("%s n=%d, %s (meddling %v): %v", name, n, o.cached.Name(), o.meddle != nil, err)
				}
				decisions += o.decisions
			}
		}
	}
	t.Logf("%d decisions agree", decisions)
}
