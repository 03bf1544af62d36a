// Package rmw implements mutual exclusion algorithms that use atomic
// read-modify-write primitives (test-and-set, fetch-and-store,
// compare-and-swap) — the "stronger memory primitives" and comparison-based
// shared objects the paper mentions in Sections 1 and 8 as extensions of
// its lower bound.
//
// These algorithms are outside the register-only model of the lower-bound
// pipeline (internal/construct rejects them) but run on the same simulator
// and cost models, providing the comparison points for experiment E7.
package rmw

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
)

// The locks register under the names the rest of the repo resolves, so
// importing this package is what makes mutex.New accept them.
func init() {
	mutex.Register("tas", TestAndSet)
	mutex.Register("mcs", MCS)
}

// TestAndSet builds a test-and-test-and-set lock: processes spin (a
// single-register read busywait, SC-bounded) until the lock register reads
// 0, then attempt an atomic test-and-set; on failure they return to
// spinning. The RMW attempts are charged per attempt.
func TestAndSet(n int) (*mutex.Factory, error) {
	if n < 1 {
		return nil, fmt.Errorf("rmw: tas: n must be ≥ 1, got %d", n)
	}
	layout := mutex.NewLayout()
	lock := layout.Reg("L", 0, -1)

	progs := make([]*program.Program, n)
	for i := 0; i < n; i++ {
		b := program.NewBuilder(fmt.Sprintf("tas/%d", i))
		x := b.Var("x")
		b.Try()
		b.Label("retry")
		b.Spin(lock, x, program.Eq(x, program.Const(0)))
		b.RMW(model.RMWTestAndSet, lock, nil, nil, x)
		b.If(program.Ne(x, program.Const(0)), "retry")
		b.Enter()
		b.Exit()
		b.Write(lock, program.Const(0))
		b.Rem()
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("rmw: tas: %w", err)
		}
		progs[i] = p
	}
	return mutex.NewFactory(fmt.Sprintf("tas(n=%d)", n), layout, progs), nil
}

// MCS builds the Mellor-Crummey–Scott queue lock [11 in the paper]: the
// classic local-spin algorithm for machines with fetch-and-store and
// compare-and-swap. Each process spins only on its own flag register, so
// its SC and DSM-RMR costs are O(1) per passage — the O(n) total baseline
// that register-only algorithms provably cannot reach (that gap is the
// paper's point).
//
// Registers: tail (queue tail, holds id+1 or 0), and per process i:
// next[i] (successor id+1 or 0) and locked[i] (1 while waiting). Process
// ids are stored as i+1 so 0 means nil.
func MCS(n int) (*mutex.Factory, error) {
	if n < 1 {
		return nil, fmt.Errorf("rmw: mcs: n must be ≥ 1, got %d", n)
	}
	layout := mutex.NewLayout()
	tail := layout.Reg("tail", 0, -1)
	nextBase := model.RegID(layout.Len())
	for i := 0; i < n; i++ {
		layout.Reg(fmt.Sprintf("next[%d]", i), 0, i)
	}
	lockedBase := model.RegID(layout.Len())
	for i := 0; i < n; i++ {
		layout.Reg(fmt.Sprintf("locked[%d]", i), 0, i)
	}

	progs := make([]*program.Program, n)
	for i := 0; i < n; i++ {
		b := program.NewBuilder(fmt.Sprintf("mcs/%d", i))
		me := program.Const(model.Value(i + 1))
		myNext := nextBase + model.RegID(i)
		myLocked := lockedBase + model.RegID(i)
		pred := b.Var("pred")
		s := b.Var("s")
		w := b.Var("w")

		b.Try()
		b.Write(myNext, program.Const(0))
		b.RMW(model.RMWFetchAndStore, tail, me, nil, pred)
		b.If(program.Eq(pred, program.Const(0)), "acquired")
		b.Write(myLocked, program.Const(1))
		// next[pred-1] := me. next array starts at nextBase.
		b.WriteX(program.Add(program.Const(model.Value(nextBase)-1), pred), me)
		b.Spin(myLocked, w, program.Eq(w, program.Const(0)))
		b.Label("acquired")
		b.Enter()
		b.Exit()
		b.Read(myNext, s)
		b.If(program.Ne(s, program.Const(0)), "handoff")
		// No known successor: try to swing tail back to 0.
		b.RMW(model.RMWCompareAndSwap, tail, me, program.Const(0), w)
		b.If(program.Eq(w, me), "released") // CAS succeeded (old value was me)
		// A successor is enqueueing: wait for it to announce itself.
		b.Spin(myNext, s, program.Ne(s, program.Const(0)))
		b.Label("handoff")
		b.WriteX(program.Add(program.Const(model.Value(lockedBase)-1), s), program.Const(0))
		b.Label("released")
		b.Rem()
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("rmw: mcs: %w", err)
		}
		progs[i] = p
	}
	return mutex.NewFactory(fmt.Sprintf("mcs(n=%d)", n), layout, progs), nil
}
