package program

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/model"
)

// Builder assembles a Program with symbolic labels and named variables.
// All emit methods record the first error encountered and turn subsequent
// calls into no-ops; Build returns the error. This keeps algorithm
// definitions free of per-call error handling.
//
// Each emit compiles its instruction on the spot: the op, and its
// expressions' postfix nodes, go straight into scratch buffers drawn from
// a pool, beside the label map and the jump fixups. Build copies the
// program out at its exact size and returns the buffers, so a factory's
// per-process builders reuse one grown set instead of each regrowing its
// own from empty.
type Builder struct {
	name      string
	buf       *buffers // pooled scratch; nil once Build released it
	nextLabel string   // label to attach to the next emitted instruction
	autoLabel int
	err       error
}

// buffers is a Builder's pooled scratch: the program being compiled, and
// what compiling it needs.
type buffers struct {
	ops      []op
	nodes    []node
	varIndex map[string]int
	varNames []string
	labels   map[string]int32 // label name → instruction index
	fixups   []fixup
	shown    []label // the label Disassemble prints at each labelled instruction
	text     []byte  // the shown labels' names, concatenated
}

type fixup struct {
	instr int
	label string
}

// builderBuffers holds cleared buffers between builds.
var builderBuffers = sync.Pool{New: func() any {
	return &buffers{varIndex: make(map[string]int), labels: make(map[string]int32)}
}}

// NewBuilder creates a builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, buf: builderBuffers.Get().(*buffers)}
}

// Var returns a reference to the named local variable, creating it on first
// use. Variables start at zero.
func (b *Builder) Var(name string) VarRef {
	if ix, ok := b.buf.varIndex[name]; ok {
		return VarRef{Index: ix, Name: name}
	}
	ix := len(b.buf.varNames)
	b.buf.varIndex[name] = ix
	b.buf.varNames = append(b.buf.varNames, name)
	return VarRef{Index: ix, Name: name}
}

// Label declares a label at the position of the next emitted instruction.
func (b *Builder) Label(name string) {
	if b.err != nil {
		return
	}
	if _, dup := b.buf.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.buf.labels[name] = int32(len(b.buf.ops))
	if b.nextLabel == "" {
		b.nextLabel = name
	}
}

// AutoLabel returns a fresh unique label name; useful for emitting loops
// from helper functions without colliding with user labels.
func (b *Builder) AutoLabel(prefix string) string {
	b.autoLabel++
	return prefix + "$" + strconv.Itoa(b.autoLabel)
}

// emit appends the compiled instruction o, recording the pending label in
// the side table. Its expressions are already compiled into the node
// buffer.
func (b *Builder) emit(o op) {
	if b.err != nil {
		return
	}
	if b.nextLabel != "" {
		b.buf.text = append(b.buf.text, b.nextLabel...)
		b.buf.shown = append(b.buf.shown, label{at: int32(len(b.buf.ops)), end: int32(len(b.buf.text))})
		b.nextLabel = ""
	}
	b.buf.ops = append(b.buf.ops, o)
}

// expr compiles e into the node buffer and returns its root node.
func (b *Builder) expr(e Expr) int32 {
	b.sub(e, 1)
	return int32(len(b.buf.nodes) - 1)
}

// sub compiles e at nesting depth depth, refusing a nil expression and
// one nested deeper than MaxExprDepth.
func (b *Builder) sub(e Expr, depth int) {
	switch {
	case b.err != nil:
	case e == nil:
		b.fail("nil expression")
	case depth > MaxExprDepth:
		b.fail("expression nests deeper than %d levels", MaxExprDepth)
	default:
		e.compile(b, depth)
	}
}

// readable reports whether an expression may read v: whether v names one
// of the program's variables.
func (b *Builder) readable(v VarRef) bool {
	if v.Index < 0 || v.Index >= len(b.buf.varNames) {
		b.fail("expression reads variable index %d of %d", v.Index, len(b.buf.varNames))
		return false
	}
	return true
}

// reg narrows a register operand to an op's 32 bits.
func (b *Builder) reg(r model.RegID) int32 {
	if r < math.MinInt32 || r > math.MaxInt32 {
		b.fail("register %d out of range", r)
	}
	return int32(r)
}

// dst narrows a destination variable's index to an op's 32 bits; Validate
// checks it against the program's variables.
func (b *Builder) dst(v VarRef) int32 {
	if v.Index < math.MinInt32 || v.Index > math.MaxInt32 {
		b.fail("variable index %d out of range", v.Index)
	}
	return int32(v.Index)
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("program %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Read emits a read of register reg into variable dst.
func (b *Builder) Read(reg model.RegID, dst VarRef) {
	b.emit(op{code: OpCRead, reg: b.reg(reg), arg: b.dst(dst)})
}

// Write emits a write of expression val to register reg.
func (b *Builder) Write(reg model.RegID, val Expr) {
	b.emit(op{code: OpCWrite, reg: b.reg(reg), a: b.expr(val)})
}

// ReadX emits a read with an indirect register operand: the register index
// is the value of regExpr at execution time.
func (b *Builder) ReadX(regExpr Expr, dst VarRef) {
	b.emit(op{code: OpCRead, indirect: true, reg: b.expr(regExpr), arg: b.dst(dst)})
}

// WriteX emits a write with an indirect register operand.
func (b *Builder) WriteX(regExpr Expr, val Expr) {
	b.emit(op{code: OpCWrite, indirect: true, reg: b.expr(regExpr), a: b.expr(val)})
}

// RMW emits an atomic read-modify-write on reg, storing the value read into
// dst. arg1/arg2 follow the conventions of model.RMWKind (CAS: expected,
// new; FAS/FAA: operand, unused).
func (b *Builder) RMW(kind model.RMWKind, reg model.RegID, arg1, arg2 Expr, dst VarRef) {
	if arg1 == nil {
		arg1 = Const(0)
	}
	if arg2 == nil {
		arg2 = Const(0)
	}
	b.emit(op{code: OpCRMW, rmw: kind, reg: b.reg(reg), a: b.expr(arg1), b: b.expr(arg2), arg: b.dst(dst)})
}

// Let emits a local assignment dst = val.
func (b *Builder) Let(dst VarRef, val Expr) {
	b.emit(op{code: OpCLet, arg: b.dst(dst), a: b.expr(val)})
}

// If emits a conditional jump to label when cond is nonzero.
func (b *Builder) If(cond Expr, label string) {
	b.emit(op{code: OpCIf, a: b.expr(cond)})
	b.jumpTo(label)
}

// Goto emits an unconditional jump to label.
func (b *Builder) Goto(label string) {
	b.emit(op{code: OpCGoto})
	b.jumpTo(label)
}

// jumpTo records that the instruction just emitted jumps to label, which
// Build resolves.
func (b *Builder) jumpTo(label string) {
	if b.err == nil {
		b.buf.fixups = append(b.buf.fixups, fixup{instr: len(b.buf.ops) - 1, label: label})
	}
}

// Crit emits a critical step.
func (b *Builder) Crit(kind model.CritKind) {
	b.emit(op{code: OpCCrit, crit: kind})
}

// Try emits try_i.
func (b *Builder) Try() { b.Crit(model.CritTry) }

// Enter emits enter_i.
func (b *Builder) Enter() { b.Crit(model.CritEnter) }

// Exit emits exit_i.
func (b *Builder) Exit() { b.Crit(model.CritExit) }

// Rem emits rem_i.
func (b *Builder) Rem() { b.Crit(model.CritRem) }

// Halt emits a halt instruction.
func (b *Builder) Halt() {
	b.emit(op{code: OpCHalt})
}

// Spin emits a single-register busywait: repeatedly read reg into dst until
// the predicate `until` (an expression over locals, normally involving dst)
// becomes true. Because the loop body contains no other state change, the
// automaton's state is unchanged while the predicate stays false — exactly
// the bounded-cost busywait the state change cost model permits (§3.3).
func (b *Builder) Spin(reg model.RegID, dst VarRef, until Expr) {
	label := b.AutoLabel("spin")
	b.Label(label)
	b.Read(reg, dst)
	b.If(Not(until), label)
}

// Build resolves labels, validates, and returns the immutable Program. The
// Program owns its arrays (each at its exact size, none shared with any
// other program), and the Builder's buffers go back to the pool: a
// Builder builds one Program.
func (b *Builder) Build() (*Program, error) {
	defer b.release()
	if b.err != nil {
		return nil, b.err
	}
	if b.nextLabel != "" {
		return nil, fmt.Errorf("program %q: label %q declared past the last instruction", b.name, b.nextLabel)
	}
	buf := b.buf
	for _, f := range buf.fixups {
		target, ok := buf.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.name, f.label)
		}
		buf.ops[f.instr].arg = target
	}
	p := &Program{
		Name:      b.name,
		VarNames:  exact(buf.varNames),
		ops:       exact(buf.ops),
		nodes:     exact(buf.nodes),
		labels:    exact(buf.shown),
		labelText: string(buf.text),
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// exact returns a copy of s whose capacity is its length, or nil when s is
// empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// release clears the buffers, so the pool pins no variable or label names,
// and returns them, grown to whatever this program needed.
func (b *Builder) release() {
	buf := b.buf
	if buf == nil {
		return
	}
	clear(buf.varIndex)
	clear(buf.varNames)
	clear(buf.labels)
	clear(buf.fixups)
	buf.ops, buf.nodes, buf.varNames = buf.ops[:0], buf.nodes[:0], buf.varNames[:0]
	buf.fixups, buf.shown, buf.text = buf.fixups[:0], buf.shown[:0], buf.text[:0]
	builderBuffers.Put(buf)
	b.buf = nil
}

// MustBuild is Build that panics on error; algorithm constructors use it
// because a failure is a programming bug, not a runtime condition.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
