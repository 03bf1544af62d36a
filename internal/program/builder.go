package program

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/model"
)

// Builder assembles a Program with symbolic labels and named variables.
// All emit methods record the first error encountered and turn subsequent
// calls into no-ops; Build returns the error. This keeps algorithm
// definitions free of per-call error handling.
//
// Instructions accumulate in a scratch buffer drawn from a pool, and Build
// copies them out at their exact size, so a factory's per-process builders
// reuse one grown buffer instead of each regrowing its own from empty.
type Builder struct {
	name      string
	scratch   *[]Instr // pooled buffer backing instrs; nil once Build released it
	instrs    []Instr
	varIndex  map[string]int
	varNames  []string
	labels    map[string]int
	fixups    []fixup
	nextLabel string // label to attach to the next emitted instruction
	autoLabel int
	err       error
}

type fixup struct {
	instr int
	label string
}

// instrBuffers holds cleared instruction buffers between builds. Pointers
// to slices, so returning one to the pool allocates nothing.
var instrBuffers = sync.Pool{New: func() any { return new([]Instr) }}

// NewBuilder creates a builder for a program with the given name.
func NewBuilder(name string) *Builder {
	scratch := instrBuffers.Get().(*[]Instr)
	return &Builder{
		name:     name,
		scratch:  scratch,
		instrs:   (*scratch)[:0],
		varIndex: make(map[string]int),
		labels:   make(map[string]int),
	}
}

// Var returns a reference to the named local variable, creating it on first
// use. Variables start at zero.
func (b *Builder) Var(name string) VarRef {
	if ix, ok := b.varIndex[name]; ok {
		return VarRef{Index: ix, Name: name}
	}
	ix := len(b.varNames)
	b.varIndex[name] = ix
	b.varNames = append(b.varNames, name)
	return VarRef{Index: ix, Name: name}
}

// Label declares a label at the position of the next emitted instruction.
func (b *Builder) Label(name string) {
	if b.err != nil {
		return
	}
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.instrs)
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

func (b *Builder) emit(in Instr) {
	if b.err != nil {
		return
	}
	in.Label = b.nextLabel
	b.nextLabel = ""
	b.instrs = append(b.instrs, in)
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("program %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Read emits a read of register reg into variable dst.
func (b *Builder) Read(reg model.RegID, dst VarRef) {
	b.emit(Instr{Op: OpCRead, Reg: reg, Dst: dst.Index})
}

// Write emits a write of expression val to register reg.
func (b *Builder) Write(reg model.RegID, val Expr) {
	b.emit(Instr{Op: OpCWrite, Reg: reg, Val: val})
}

// ReadX emits a read with an indirect register operand: the register index
// is the value of regExpr at execution time.
func (b *Builder) ReadX(regExpr Expr, dst VarRef) {
	b.emit(Instr{Op: OpCRead, RegX: regExpr, Dst: dst.Index})
}

// WriteX emits a write with an indirect register operand.
func (b *Builder) WriteX(regExpr Expr, val Expr) {
	b.emit(Instr{Op: OpCWrite, RegX: regExpr, Val: val})
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
	b.emit(Instr{Op: OpCRMW, RMW: kind, Reg: reg, Val: arg1, Val2: arg2, Dst: dst.Index})
}

// Let emits a local assignment dst = val.
func (b *Builder) Let(dst VarRef, val Expr) {
	b.emit(Instr{Op: OpCLet, Dst: dst.Index, Val: val})
}

// If emits a conditional jump to label when cond is nonzero.
func (b *Builder) If(cond Expr, label string) {
	b.emit(Instr{Op: OpCIf, Cond: cond})
	if b.err == nil {
		b.fixups = append(b.fixups, fixup{instr: len(b.instrs) - 1, label: label})
	}
}

// Goto emits an unconditional jump to label.
func (b *Builder) Goto(label string) {
	b.emit(Instr{Op: OpCGoto})
	if b.err == nil {
		b.fixups = append(b.fixups, fixup{instr: len(b.instrs) - 1, label: label})
	}
}

// Crit emits a critical step.
func (b *Builder) Crit(kind model.CritKind) {
	b.emit(Instr{Op: OpCCrit, Crit: kind})
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
	b.emit(Instr{Op: OpCHalt})
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
// Program owns its instructions (cap equals len, no array shared with any
// other program), and the Builder's scratch buffer goes back to the pool:
// a Builder builds one Program.
func (b *Builder) Build() (*Program, error) {
	defer b.release()
	if b.err != nil {
		return nil, b.err
	}
	if b.nextLabel != "" {
		return nil, fmt.Errorf("program %q: label %q declared past the last instruction", b.name, b.nextLabel)
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.name, f.label)
		}
		b.instrs[f.instr].Target = target
	}
	p := &Program{Name: b.name, Instrs: make([]Instr, len(b.instrs)), VarNames: b.varNames}
	copy(p.Instrs, b.instrs)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// release clears the scratch buffer, so the pool pins no expressions or
// labels, and returns it, grown to whatever this program needed.
func (b *Builder) release() {
	if b.scratch == nil {
		return
	}
	clear(b.instrs)
	*b.scratch = b.instrs[:0]
	instrBuffers.Put(b.scratch)
	b.scratch, b.instrs = nil, nil
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
