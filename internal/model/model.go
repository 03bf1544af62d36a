// Package model defines the basic vocabulary of the shared-memory framework
// from Section 3.1 of Fan & Lynch, "An Ω(n log n) Lower Bound on the Cost of
// Mutual Exclusion" (PODC 2006): process steps, register files, and
// executions.
//
// A system consists of n deterministic process automata p_0 … p_{n-1}
// (the paper numbers them 1…n) and a collection of multi-reader multi-writer
// atomic registers. An execution is an alternating sequence of system states
// and steps; because processes and registers are deterministic, an execution
// is fully determined by its step sequence, which is how this package
// represents it.
package model

import (
	"fmt"
	"strconv"
)

// Value is the contents of a shared register. The paper allows an arbitrary
// value set V; int64 is sufficient for every algorithm in this repository.
type Value = int64

// RegID identifies a shared register within a register file.
type RegID int

// Kind classifies a step, mirroring type(e) ∈ {R, W, C} in the paper, with
// an extra RMW kind for the comparison-primitive extension of Section 1.
type Kind uint8

const (
	// KindRead is a read step read_i(ℓ).
	KindRead Kind = iota
	// KindWrite is a write step write_i(ℓ, v).
	KindWrite
	// KindCrit is a critical step (try/enter/exit/rem).
	KindCrit
	// KindRMW is an atomic read-modify-write step. It is not part of the
	// paper's register-only model; it exists for the comparison-based
	// shared object extension mentioned in Sections 1 and 8.
	KindRMW
)

// String returns R, W, C or RMW, matching the paper's notation.
func (k Kind) String() string {
	switch k {
	case KindRead:
		return "R"
	case KindWrite:
		return "W"
	case KindCrit:
		return "C"
	case KindRMW:
		return "RMW"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// CritKind distinguishes the four critical steps of the mutual exclusion
// problem (Section 3.2).
type CritKind uint8

const (
	// CritTry is try_i: the process leaves its remainder section and
	// begins competing for the critical section.
	CritTry CritKind = iota
	// CritEnter is enter_i: the process enters its critical section.
	CritEnter
	// CritExit is exit_i: the process leaves its critical section.
	CritExit
	// CritRem is rem_i: the process returns to its remainder section.
	CritRem
)

// String returns try/enter/exit/rem.
func (c CritKind) String() string {
	switch c {
	case CritTry:
		return "try"
	case CritEnter:
		return "enter"
	case CritExit:
		return "exit"
	case CritRem:
		return "rem"
	default:
		return fmt.Sprintf("CritKind(%d)", uint8(c))
	}
}

// RMWKind identifies a read-modify-write primitive for the extension model.
type RMWKind uint8

const (
	// RMWTestAndSet atomically sets the register to 1 and returns the old value.
	RMWTestAndSet RMWKind = iota
	// RMWCompareAndSwap writes New if the register equals Old, returning the old value.
	RMWCompareAndSwap
	// RMWFetchAndStore writes New unconditionally and returns the old value.
	RMWFetchAndStore
	// RMWFetchAndAdd adds New to the register and returns the old value.
	RMWFetchAndAdd
)

// String names the primitive.
func (r RMWKind) String() string {
	switch r {
	case RMWTestAndSet:
		return "TAS"
	case RMWCompareAndSwap:
		return "CAS"
	case RMWFetchAndStore:
		return "FAS"
	case RMWFetchAndAdd:
		return "FAA"
	default:
		return fmt.Sprintf("RMWKind(%d)", uint8(r))
	}
}

// Step is a single process step. The fields used depend on Kind:
//
//   - KindRead: Proc, Reg; Val records the value read (when the step has
//     been executed in a concrete execution; it is ignored when the step is
//     merely pending).
//   - KindWrite: Proc, Reg, Val (the value written).
//   - KindCrit: Proc, Crit.
//   - KindRMW: Proc, Reg, RMW, Arg1, Arg2; Val records the value returned.
type Step struct {
	Proc int // process index, 0-based
	Kind Kind
	Reg  RegID
	Val  Value
	Crit CritKind
	RMW  RMWKind
	Arg1 Value // CAS expected value / FAS-FAA operand
	Arg2 Value // CAS new value
}

// IsShared reports whether the step accesses shared memory (read, write, or
// RMW) as opposed to being a critical step.
//
//repro:hotpath
func (s Step) IsShared() bool { return s.Kind != KindCrit }

// String renders the step in the paper's notation, e.g. "write_3(r5,1)".
func (s Step) String() string { return string(s.Append(nil)) }

// Append appends the step's String form to b and returns the result.
func (s Step) Append(b []byte) []byte {
	switch s.Kind {
	case KindRead:
		b = appendOp(b, "read", s.Proc, s.Reg)
		b = append(b, ")="...)
		return strconv.AppendInt(b, s.Val, 10)
	case KindWrite:
		b = appendOp(b, "write", s.Proc, s.Reg)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Val, 10)
		return append(b, ')')
	case KindCrit:
		b = append(b, s.Crit.String()...)
		b = append(b, '_')
		return strconv.AppendInt(b, int64(s.Proc), 10)
	case KindRMW:
		b = appendOp(b, s.RMW.String(), s.Proc, s.Reg)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Arg1, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Arg2, 10)
		b = append(b, ")="...)
		return strconv.AppendInt(b, s.Val, 10)
	default:
		b = append(b, "step_"...)
		b = strconv.AppendInt(b, int64(s.Proc), 10)
		b = append(b, "(kind="...)
		b = strconv.AppendUint(b, uint64(s.Kind), 10)
		return append(b, ')')
	}
}

// appendOp appends "op_proc(rreg", the common head of a shared step.
func appendOp(b []byte, op string, proc int, reg RegID) []byte {
	b = append(b, op...)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(proc), 10)
	b = append(b, "(r"...)
	return strconv.AppendInt(b, int64(reg), 10)
}

// SameOperation reports whether two steps denote the same operation by the
// same process on the same register, ignoring recorded read results. It is
// used by replay and by the decoder to check that a pending step matches a
// recorded one.
//
//repro:hotpath
func (s Step) SameOperation(t Step) bool {
	if s.Proc != t.Proc || s.Kind != t.Kind {
		return false
	}
	switch s.Kind {
	case KindRead:
		return s.Reg == t.Reg
	case KindWrite:
		return s.Reg == t.Reg && s.Val == t.Val
	case KindCrit:
		return s.Crit == t.Crit
	case KindRMW:
		return s.Reg == t.Reg && s.RMW == t.RMW && s.Arg1 == t.Arg1 && s.Arg2 == t.Arg2
	default:
		return false
	}
}

// Execution is a finite execution represented by its step sequence (the
// paper's e_1 e_2 … form; states are recoverable by replay because the
// system is deterministic).
type Execution []Step

// Clone returns a deep copy of the execution.
func (e Execution) Clone() Execution {
	out := make(Execution, len(e))
	copy(out, e)
	return out
}

// Prefix returns the length-t prefix α(t) of the execution (or the whole
// execution if it is shorter than t).
func (e Execution) Prefix(t int) Execution {
	if t > len(e) {
		t = len(e)
	}
	return e[:t]
}

// Project returns the projection α|i: the subsequence of steps taken by
// process i.
func (e Execution) Project(i int) Execution {
	var out Execution
	for _, s := range e {
		if s.Proc == i {
			out = append(out, s)
		}
	}
	return out
}

// CritSteps returns the subsequence of critical steps, optionally restricted
// to one process (proc >= 0).
func (e Execution) CritSteps(proc int) Execution {
	var out Execution
	for _, s := range e {
		if s.Kind == KindCrit && (proc < 0 || s.Proc == proc) {
			out = append(out, s)
		}
	}
	return out
}

// EntryOrder returns the processes in the order of their enter steps.
// A process appears once per critical section entry.
func (e Execution) EntryOrder() []int {
	var order []int
	for _, s := range e {
		if s.Kind == KindCrit && s.Crit == CritEnter {
			order = append(order, s.Proc)
		}
	}
	return order
}

// String renders the execution as its steps' String forms separated by
// single spaces.
func (e Execution) String() string { return string(e.Append(nil)) }

// Append appends the execution's String form to b and returns the result,
// formatting nothing through fmt.
func (e Execution) Append(b []byte) []byte {
	for i, s := range e {
		if i > 0 {
			b = append(b, ' ')
		}
		b = s.Append(b)
	}
	return b
}

// Equal reports whether two executions are identical step for step.
func (e Execution) Equal(o Execution) bool {
	if len(e) != len(o) {
		return false
	}
	for i := range e {
		if e[i] != o[i] {
			return false
		}
	}
	return true
}

// Registers is a file of shared multi-reader multi-writer registers.
// The zero value is unusable; create one with NewRegisters.
type Registers struct {
	vals []Value
}

// NewRegisters creates a register file of the given size with the given
// initial values. If init is nil all registers start at zero; otherwise
// len(init) must equal size.
func NewRegisters(size int, init []Value) *Registers {
	r := &Registers{vals: make([]Value, size)}
	if init != nil {
		if len(init) != size {
			panic(fmt.Sprintf("model: NewRegisters: len(init)=%d, size=%d", len(init), size))
		}
		copy(r.vals, init)
	}
	return r
}

// Len returns the number of registers.
//
//repro:hotpath
func (r *Registers) Len() int { return len(r.vals) }

// Read returns the current value of register id.
//
//repro:hotpath
func (r *Registers) Read(id RegID) Value { return r.vals[id] }

// Write sets register id to v.
//
//repro:hotpath
func (r *Registers) Write(id RegID, v Value) { r.vals[id] = v }

// Snapshot returns a copy of all register values.
func (r *Registers) Snapshot() []Value {
	out := make([]Value, len(r.vals))
	copy(out, r.vals)
	return out
}

// Restore overwrites all register values from a snapshot taken with Snapshot.
func (r *Registers) Restore(snap []Value) {
	if len(snap) != len(r.vals) {
		panic(fmt.Sprintf("model: Restore: len(snap)=%d, registers=%d", len(snap), len(r.vals)))
	}
	copy(r.vals, snap)
}

// Clone returns an independent copy of the register file.
func (r *Registers) Clone() *Registers {
	return &Registers{vals: r.Snapshot()}
}

// ApplyRMW atomically applies a read-modify-write primitive to register id
// and returns the value the primitive reads (the old value).
//
//repro:hotpath
func (r *Registers) ApplyRMW(id RegID, kind RMWKind, arg1, arg2 Value) Value {
	old := r.vals[id]
	r.vals[id] = RMWResult(kind, old, arg1, arg2)
	return old
}

// RMWResult returns the value a read-modify-write primitive leaves in a
// register that held old. It is the one definition of the primitives:
// ApplyRMW stores its result, and a lookahead that must not touch the
// register file asks it what a step would store.
//
//repro:hotpath
func RMWResult(kind RMWKind, old, arg1, arg2 Value) Value {
	switch kind {
	case RMWTestAndSet:
		return 1
	case RMWCompareAndSwap:
		if old == arg1 {
			return arg2
		}
		return old
	case RMWFetchAndStore:
		return arg1
	case RMWFetchAndAdd:
		return old + arg1
	default:
		panic(badRMWKind(kind))
	}
}

// badRMWKind formats the unknown-RMW panic message.
//
//repro:hotpath-ok cold panic path: reached only on a corrupt RMWKind, never in a steady-state run
func badRMWKind(kind RMWKind) string {
	return fmt.Sprintf("model: unknown RMW kind %d", kind)
}
