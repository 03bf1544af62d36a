package main

import (
	"encoding/json"
	"math/rand"

	"repro/internal/runner"
	"repro/internal/session"
)

// The serve-mixed input: a hot set of cells primed during set-up — the 15
// round-robin (algorithm, n) cells cmd/loadgen draws from — and a cold
// tail of units never requested before: the same five algorithms under
// fresh random-scheduler seeds at larger n, each of which simulates and
// captures its trace.
var (
	serveAlgos = []string{"yang-anderson", "bakery", "peterson", "tas", "mcs"}
	hotNs      = []int{4, 8, 16}
	tailNs     = []int{8, 16, 32}
)

// coldEvery sets the mix: one request in every block of coldEvery is
// cold, the other four in five hit the hot set.
const coldEvery = 5

// serveReq is one pre-encoded request and its class.
type serveReq struct {
	body []byte
	unit session.Unit
	hot  int // index into hotSet(); -1 for a cold-tail unit
}

// hotSet returns the hot cells in a fixed order.
func hotSet() []session.Unit {
	var out []session.Unit
	for _, a := range serveAlgos {
		for _, n := range hotNs {
			out = append(out, session.Unit{Algo: a, N: n, Sched: "round-robin", Seed: 1})
		}
	}
	return out
}

// tailCells returns the cold tail's (algorithm, n) cells, scheduler seed
// unset.
func tailCells() []session.Unit {
	var out []session.Unit
	for _, a := range serveAlgos {
		for _, n := range tailNs {
			out = append(out, session.Unit{Algo: a, N: n, Sched: "random"})
		}
	}
	return out
}

// serveSequence returns the first n requests of the seed's sequence for
// one phase (0 for the measured sequence, 1 for the warm-up). It is a pure
// function of its arguments. The seed places the cold request in each
// block of coldEvery, picks each hot cell, and orders the tail cells; the
// tail visits every cell once per round of len(tailCells()) cold requests,
// so seeds differ in order and scheduler seeds but not in how much
// simulation the tail asks for. Cold scheduler seeds are a per-seed base
// plus phase<<32 plus a running index, so no cold unit repeats within a
// sequence or across the two phases.
func serveSequence(seed int64, phase, n int) []serveReq {
	rng := rand.New(rand.NewSource(runner.MixSeed(seed, int64(phase))))
	base := rand.New(rand.NewSource(seed)).Int63n(1<<40) + int64(phase)<<32
	hot := hotSet()
	var round []session.Unit
	out := make([]serveReq, n)
	cold, coldAt := int64(0), 0
	for i := range out {
		if i%coldEvery == 0 {
			coldAt = i + rng.Intn(coldEvery)
		}
		r := serveReq{hot: -1}
		if i != coldAt {
			r.hot = rng.Intn(len(hot))
			r.unit = hot[r.hot]
		} else {
			if len(round) == 0 {
				round = tailCells()
				rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
			}
			r.unit = round[0]
			r.unit.Seed = base + cold
			round = round[1:]
			cold++
		}
		body, err := json.Marshal(r.unit)
		if err != nil {
			panic(err) // a Unit of strings and ints always encodes
		}
		r.body = body
		out[i] = r
	}
	return out
}
