// Package program implements the deterministic process automata of the
// paper's shared-memory framework (Section 3.1) as interpreted register
// programs.
//
// A Program is a process's instruction list over local variables and
// shared registers, compiled for the interpreter. A Builder writes it as
// instructions whose operands are expression trees (Expr), and compiles
// each instruction as it is emitted into a fixed-size op with no
// pointers. An op's expression operands index the program's node array,
// where each expression sits in postfix order. The GC never scans either
// array, and a factory of Θ(n³) instructions (the filter lock's) costs a
// few dozen bytes per instruction. Labels live in a side table that only
// Disassemble and Instr read.
//
// The interpreter (Automaton) exposes exactly the interface the paper's
// proofs require of a process automaton p_i:
//
//   - a deterministic transition function δ: PendingStep() computes the next
//     shared-memory or critical step from the current state;
//   - Feed applies the result of a step, advancing the state;
//   - WouldChangeState feeds a value speculatively and rolls the state
//     back, which is how the construction's SC(α, µ, i) oracle asks "would
//     p_i change state if it read value v?";
//   - StateKey is a canonical fingerprint of the state, which is what the
//     state change cost model (Definition 3.1) charges on.
//
// Local computation (Let/If/Goto) is not a step in the paper's model, so the
// interpreter folds it into the transition function: after every Feed the
// automaton runs local instructions eagerly until the program counter rests
// on a shared-memory or critical instruction. A busywait loop written as
//
//	loop: Read r -> x ; If x == 0 goto loop
//
// therefore returns to a state identical to the pre-read state whenever the
// value read is unchanged, which makes SC-model accounting (free re-reads of
// a single unchanged register) an exact consequence of StateKey comparison.
// Builder.Spin emits exactly this pattern.
package program

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
)

// OpCode enumerates instruction kinds.
type OpCode uint8

// Instruction opcodes.
const (
	// OpCRead reads a shared register into a local variable.
	OpCRead OpCode = iota
	// OpCWrite writes the value of an expression to a shared register.
	OpCWrite
	// OpCRMW applies an atomic read-modify-write primitive to a register,
	// storing the value read into a local variable. Only used by the
	// comparison-primitive extension; the register-only model never emits it.
	OpCRMW
	// OpCCrit performs a critical step (try/enter/exit/rem).
	OpCCrit
	// OpCLet assigns an expression to a local variable (local, not a step).
	OpCLet
	// OpCIf jumps to Target when Cond is nonzero (local, not a step).
	OpCIf
	// OpCGoto jumps unconditionally (local, not a step).
	OpCGoto
	// OpCHalt stops the process; the automaton is halted forever after.
	OpCHalt
)

func (o OpCode) String() string {
	switch o {
	case OpCRead:
		return "read"
	case OpCWrite:
		return "write"
	case OpCRMW:
		return "rmw"
	case OpCCrit:
		return "crit"
	case OpCLet:
		return "let"
	case OpCIf:
		return "if"
	case OpCGoto:
		return "goto"
	case OpCHalt:
		return "halt"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Instr is one instruction in tree form: its expression operands are Expr
// trees. A Program does not hold Instrs; Builder compiles each instruction
// into an op as it is emitted, and Program.Instr rebuilds one from its op
// and nodes for reading. Field usage by opcode:
//
//	OpCRead:  Reg (or RegX), Dst
//	OpCWrite: Reg (or RegX), Val
//	OpCRMW:   Reg (or RegX), Dst, RMW, Val (arg1), Val2 (arg2)
//	OpCCrit:  Crit
//	OpCLet:   Dst, Val
//	OpCIf:    Cond, Target
//	OpCGoto:  Target
//	OpCHalt:  —
//
// When RegX is non-nil the register operand is computed from the local
// environment at access time (indirect addressing, e.g. Yang–Anderson's
// write to P[rival] where rival was read from a register). Which register a
// pending step accesses is still a deterministic function of the process
// state, as the model requires.
type Instr struct {
	Op     OpCode
	Reg    model.RegID
	RegX   Expr // dynamic register operand; overrides Reg when non-nil
	Dst    int  // local variable index
	Val    Expr
	Val2   Expr
	Cond   Expr
	Target int
	Crit   model.CritKind
	RMW    model.RMWKind
	Label  string // informational: label attached to this instruction, if any
}

// op is one compiled instruction: 20 bytes, no pointers. Field usage by
// code follows Instr's:
//
//	OpCRead:  reg, arg (Dst)
//	OpCWrite: reg, a (Val)
//	OpCRMW:   reg, arg (Dst), rmw, a (arg1), b (arg2)
//	OpCCrit:  crit
//	OpCLet:   arg (Dst), a (Val)
//	OpCIf:    a (Cond), arg (Target)
//	OpCGoto:  arg (Target)
//
// a and b are the root nodes of their expressions in the program's node
// array. When indirect is set, reg is the root node of the register
// expression (Instr.RegX) rather than a register.
type op struct {
	code     OpCode
	crit     model.CritKind
	rmw      model.RMWKind
	indirect bool
	reg      int32
	arg      int32
	a, b     int32
}

// local reports whether the op is local computation (Let, If, Goto).
//
//repro:hotpath
func (o *op) local() bool {
	return o.code == OpCLet || o.code == OpCIf || o.code == OpCGoto
}

// label marks a labelled instruction in a Program's side table: the
// instruction's index, and the end of the label's name in labelText (the
// name starts where the previous entry's ends).
type label struct {
	at, end int32
}

// Program is an immutable, compiled instruction sequence with variable
// metadata. Build one with a Builder. A Program is shared by all automata
// running it; only the Automaton carries mutable state.
type Program struct {
	Name     string
	VarNames []string

	ops       []op
	nodes     []node  // every expression of ops, each in postfix order
	labels    []label // the labelled instructions, in program order
	labelText string  // the labels' names, concatenated
}

// NumVars returns the number of local variables.
func (p *Program) NumVars() int { return len(p.VarNames) }

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.ops) }

// Instr returns instruction i in tree form: its expressions rebuilt from
// the compiled nodes, and its label, if it has one. Disassemble prints
// through it; the interpreter never calls it.
func (p *Program) Instr(i int) Instr {
	o := &p.ops[i]
	in := Instr{Op: o.code, Crit: o.crit, RMW: o.rmw}
	switch o.code {
	case OpCRead, OpCWrite, OpCRMW:
		if o.indirect {
			in.RegX = p.tree(o.reg)
		} else {
			in.Reg = model.RegID(o.reg)
		}
	}
	switch o.code {
	case OpCRead:
		in.Dst = int(o.arg)
	case OpCWrite:
		in.Val = p.tree(o.a)
	case OpCRMW:
		in.Dst, in.Val, in.Val2 = int(o.arg), p.tree(o.a), p.tree(o.b)
	case OpCLet:
		in.Dst, in.Val = int(o.arg), p.tree(o.a)
	case OpCIf:
		in.Cond, in.Target = p.tree(o.a), int(o.arg)
	case OpCGoto:
		in.Target = int(o.arg)
	}
	if k := sort.Search(len(p.labels), func(k int) bool { return p.labels[k].at >= int32(i) }); k < len(p.labels) && p.labels[k].at == int32(i) {
		start := int32(0)
		if k > 0 {
			start = p.labels[k-1].end
		}
		in.Label = p.labelText[start:p.labels[k].end]
	}
	return in
}

// Disassemble renders the program as readable text, one instruction per
// line, with labels and jump targets resolved to line numbers.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q (%d vars)\n", p.Name, len(p.VarNames))
	for i := range p.ops {
		in := p.Instr(i)
		label := ""
		if in.Label != "" {
			label = in.Label + ":"
		}
		fmt.Fprintf(&b, "%4d %-12s ", i, label)
		reg := fmt.Sprintf("r%d", in.Reg)
		if in.RegX != nil {
			reg = fmt.Sprintf("r[%s]", in.RegX)
		}
		switch in.Op {
		case OpCRead:
			fmt.Fprintf(&b, "read  %s -> %s", reg, p.VarNames[in.Dst])
		case OpCWrite:
			fmt.Fprintf(&b, "write %s <- %s", reg, in.Val)
		case OpCRMW:
			fmt.Fprintf(&b, "rmw   %s %s (%s, %s) -> %s", in.RMW, reg, in.Val, in.Val2, p.VarNames[in.Dst])
		case OpCCrit:
			fmt.Fprintf(&b, "crit  %s", in.Crit)
		case OpCLet:
			fmt.Fprintf(&b, "let   %s = %s", p.VarNames[in.Dst], in.Val)
		case OpCIf:
			fmt.Fprintf(&b, "if    %s goto %d", in.Cond, in.Target)
		case OpCGoto:
			fmt.Fprintf(&b, "goto  %d", in.Target)
		case OpCHalt:
			fmt.Fprintf(&b, "halt")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks structural well-formedness:
//   - every jump target is in range;
//   - variable indices are in range;
//   - there is no cycle consisting solely of local instructions (such a
//     cycle would make the folded transition function diverge, i.e. the
//     automaton would not be a valid process of the model).
func (p *Program) Validate() error {
	n := len(p.ops)
	if n == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	for i := range p.ops {
		o := &p.ops[i]
		switch o.code {
		case OpCIf, OpCGoto:
			if o.arg < 0 || int(o.arg) >= n {
				return fmt.Errorf("program %q: instr %d: jump target %d out of range [0,%d)", p.Name, i, o.arg, n)
			}
		case OpCRead, OpCRMW, OpCLet:
			if o.arg < 0 || int(o.arg) >= len(p.VarNames) {
				return fmt.Errorf("program %q: instr %d: variable index %d out of range", p.Name, i, o.arg)
			}
		}
	}
	// Local-only cycle detection: the local control-flow graph has an edge
	// from each local instruction to each of its successors, and non-local
	// instructions are sinks. Depth-first search with colors, roots in
	// program order, on an explicit stack of (node, next successor) frames.
	const (
		white, gray, black = 0, 1, 2
	)
	color := make([]byte, n)
	type frame struct{ node, next int }
	var stack []frame
	for root := range p.ops {
		if color[root] != white || !p.ops[root].local() {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{node: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			s, ok := p.localSucc(top.node, top.next)
			if !ok {
				color[top.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			top.next++
			if s >= n || !p.ops[s].local() || color[s] == black {
				continue
			}
			if color[s] == gray {
				return fmt.Errorf("program %q: local-instruction cycle through instr %d (transition function would diverge)", p.Name, s)
			}
			color[s] = gray
			stack = append(stack, frame{node: s})
		}
	}
	return nil
}

// localSucc returns the k-th control-flow successor of local instruction
// i: i+1 after a Let, the target of a Goto, and i+1 then the target of an
// If. ok is false past the last one.
func (p *Program) localSucc(i, k int) (s int, ok bool) {
	o := &p.ops[i]
	switch {
	case o.code == OpCLet && k == 0, o.code == OpCIf && k == 0:
		return i + 1, true
	case o.code == OpCGoto && k == 0:
		return int(o.arg), true
	case o.code == OpCIf && k == 1:
		return int(o.arg), true
	}
	return 0, false
}

// Automaton is a running instance of a Program for one process: the paper's
// deterministic process automaton. Its state is (pc, local variables,
// halted); the state is always normalized so that pc rests on a non-local
// instruction (or the automaton is halted).
type Automaton struct {
	prog   *Program
	proc   int
	pc     int
	env    []model.Value
	halted bool

	// scratch is a reusable pre-state snapshot buffer for FeedChanged and
	// WouldChangeState, so the per-step state-change test of the SC cost
	// model allocates nothing in steady state. It is never part of the
	// automaton's state: Clone ignores it.
	scratch []model.Value
}

// maxLocalOps bounds the number of local instructions executed during one
// normalization; exceeding it indicates a diverging transition function
// (which Validate should have rejected).
const maxLocalOps = 1_000_000

// NewAutomaton creates an automaton for process proc in its initial state.
func NewAutomaton(p *Program, proc int) *Automaton {
	a := &Automaton{
		prog: p,
		proc: proc,
		env:  make([]model.Value, p.NumVars()),
	}
	a.normalize()
	return a
}

// Proc returns the process index this automaton runs as.
func (a *Automaton) Proc() int { return a.proc }

// Program returns the underlying program.
func (a *Automaton) Program() *Program { return a.prog }

// Halted reports whether the process has executed Halt.
//
//repro:hotpath
func (a *Automaton) Halted() bool { return a.halted }

// PC returns the current (normalized) program counter; for debugging.
func (a *Automaton) PC() int { return a.pc }

// Env returns a copy of the local variable environment; for debugging.
func (a *Automaton) Env() []model.Value {
	out := make([]model.Value, len(a.env))
	copy(out, a.env)
	return out
}

// normalize runs local instructions until pc rests on a non-local
// instruction or the program ends (which halts the automaton).
//
//repro:hotpath
func (a *Automaton) normalize() {
	for ops := 0; ; ops++ {
		if ops > maxLocalOps {
			panic(a.badState("local instructions diverge"))
		}
		if a.pc >= len(a.prog.ops) {
			a.halted = true
			return
		}
		o := &a.prog.ops[a.pc]
		switch o.code {
		case OpCLet:
			a.env[o.arg] = a.prog.eval(o.a, a.env)
			a.pc++
		case OpCGoto:
			a.pc = int(o.arg)
		case OpCIf:
			if a.prog.eval(o.a, a.env) != 0 {
				a.pc = int(o.arg)
			} else {
				a.pc++
			}
		case OpCHalt:
			a.halted = true
			return
		default:
			return
		}
	}
}

// PendingStep computes δ(state): the next step the process will take.
// The returned step has Proc filled in; for reads the Val field is
// meaningless until the step is executed. Calling PendingStep repeatedly
// without Feed returns the same step; it does not mutate state.
// PendingStep panics if the automaton is halted.
//
//repro:hotpath
func (a *Automaton) PendingStep() model.Step {
	if a.halted {
		panic(a.badState("PendingStep on halted automaton"))
	}
	o := &a.prog.ops[a.pc]
	switch o.code {
	case OpCRead:
		return model.Step{Proc: a.proc, Kind: model.KindRead, Reg: a.regOf(o)}
	case OpCWrite:
		return model.Step{Proc: a.proc, Kind: model.KindWrite, Reg: a.regOf(o), Val: a.prog.eval(o.a, a.env)}
	case OpCRMW:
		return model.Step{
			Proc: a.proc, Kind: model.KindRMW, Reg: a.regOf(o), RMW: o.rmw,
			Arg1: a.prog.eval(o.a, a.env), Arg2: a.prog.eval(o.b, a.env),
		}
	case OpCCrit:
		return model.Step{Proc: a.proc, Kind: model.KindCrit, Crit: o.crit}
	default:
		panic(a.badState("PendingStep at non-normalized instruction"))
	}
}

// regOf resolves the op's register operand in the automaton's environment.
//
//repro:hotpath
func (a *Automaton) regOf(o *op) model.RegID {
	if o.indirect {
		return model.RegID(a.prog.eval(o.reg, a.env))
	}
	return model.RegID(o.reg)
}

// Feed applies the result of executing the pending step and advances the
// state. For reads and RMWs, v is the value read; for writes and critical
// steps v is ignored. Feed then re-normalizes.
//
//repro:hotpath
func (a *Automaton) Feed(v model.Value) {
	if a.halted {
		panic(a.badState("Feed on halted automaton"))
	}
	o := &a.prog.ops[a.pc]
	switch o.code {
	case OpCRead, OpCRMW:
		a.env[o.arg] = v
		a.pc++
	case OpCWrite, OpCCrit:
		a.pc++
	default:
		panic(a.badState("Feed at non-step instruction"))
	}
	a.normalize()
}

// badState formats a machine-invariant panic message, naming the program,
// process, pc and (when in range) the instruction there.
//
//repro:hotpath-ok cold panic path: formats invariant violations off the hot path, never reached in a steady-state run
func (a *Automaton) badState(what string) string {
	at := "end of program"
	if a.pc < len(a.prog.ops) {
		at = a.prog.ops[a.pc].code.String()
	}
	return fmt.Sprintf("program %q: process %d: %s at pc=%d (%s)", a.prog.Name, a.proc, what, a.pc, at)
}

// Clone returns an independent copy of the automaton in the same state.
func (a *Automaton) Clone() *Automaton {
	env := make([]model.Value, len(a.env))
	copy(env, a.env)
	return &Automaton{prog: a.prog, proc: a.proc, pc: a.pc, env: env, halted: a.halted}
}

// snapshot records the automaton's current state into the reusable scratch
// buffer and returns (pc, halted) — everything stateChangedSince needs.
//
//repro:hotpath
func (a *Automaton) snapshot() (pc int, halted bool) {
	if cap(a.scratch) < len(a.env) {
		a.scratch = make([]model.Value, len(a.env))
	}
	a.scratch = a.scratch[:len(a.env)]
	copy(a.scratch, a.env)
	return a.pc, a.halted
}

// stateChangedSince reports whether the automaton state differs from the
// snapshot. Comparing (pc, env, halted) directly is exactly StateKey
// inequality — StateKey is injective on those fields — without building
// either string.
//
//repro:hotpath
func (a *Automaton) stateChangedSince(pc int, halted bool) bool {
	if a.pc != pc || a.halted != halted {
		return true
	}
	for i, v := range a.env {
		if v != a.scratch[i] {
			return true
		}
	}
	return false
}

// FeedChanged is Feed plus the SC cost model's question: it applies the
// result of the pending step and reports whether the automaton's state
// (pc, locals, halted) changed across it. It is the allocation-free
// replacement for the StateKey-before/StateKey-after comparison on the
// simulator's per-step hot path.
//
//repro:hotpath
func (a *Automaton) FeedChanged(v model.Value) bool {
	pc, halted := a.snapshot()
	a.Feed(v)
	return a.stateChangedSince(pc, halted)
}

// StateKey returns a canonical fingerprint of the automaton state. Two
// automata for the same program have equal StateKeys iff they are in the
// same state. The state change cost model charges a shared-memory step
// exactly when the StateKey changes across it.
func (a *Automaton) StateKey() string {
	var b strings.Builder
	b.Grow(8 + 8*len(a.env))
	if a.halted {
		b.WriteByte('H')
	}
	b.WriteString(strconv.Itoa(a.pc))
	for _, v := range a.env {
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}

// WouldChangeState reports whether executing the pending step with result
// v would change the automaton's state, and leaves the state as it was.
// For a read or RMW, v is the value the step reads; for a write or
// critical step Feed ignores v, so the answer depends on the program alone
// (a write at the head of a loop that returns to it changes nothing). For
// reads this is the paper's SC(α, m, i) helper (Figure 1): process p_i,
// whose state is st(α, i), changes state upon reading v exactly when this
// returns true. It panics where Feed does: on a halted automaton or at a
// non-step instruction.
//
//repro:hotpath
func (a *Automaton) WouldChangeState(v model.Value) bool {
	// Speculatively feed, compare, and roll back through the scratch
	// snapshot — ProgressFirst asks this of up to n processes per
	// decision, and GreedyCost of each process it rescores plus the
	// pending readers of the register that process would change, so it
	// must not clone or build state strings. Feed panics before it mutates
	// anything, so a refused step leaves the state intact too.
	pc, halted := a.snapshot()
	a.Feed(v)
	changed := a.stateChangedSince(pc, halted)
	a.pc, a.halted = pc, halted
	copy(a.env, a.scratch)
	return changed
}
