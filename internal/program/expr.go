package program

import (
	"fmt"

	"repro/internal/model"
)

// Expr is a side-effect-free expression over a process's local variables:
// a written value, a branch condition, a spin predicate or an indirect
// register operand. Booleans are represented as 0 (false) and 1 (true),
// C-style. A Builder compiles each Expr it is given into postfix nodes of
// the program it builds; the interpreter evaluates those nodes, never the
// tree. The set of expression kinds is closed: ConstExpr, VarRef, BinExpr
// and NotExpr.
type Expr interface {
	// String renders the expression for disassembly and error messages.
	String() string
	// compile appends the expression's postfix nodes to the builder's node
	// buffer. depth is the expression's nesting level (1 at an operand's
	// root); Builder.sub checks it against MaxExprDepth.
	compile(b *Builder, depth int)
}

// MaxExprDepth is how deeply an expression may nest, a literal or a
// variable counting as one level. It bounds the value stack the
// interpreter evaluates postfix nodes on, so Build refuses a deeper
// expression instead of the interpreter overflowing at run time.
const MaxExprDepth = 16

// ConstExpr is a literal value.
type ConstExpr struct{ V model.Value }

// String renders the literal.
func (c ConstExpr) String() string { return fmt.Sprintf("%d", c.V) }

func (c ConstExpr) compile(b *Builder, _ int) {
	b.buf.nodes = append(b.buf.nodes, node{kind: nodeConst, v: c.V, span: 1})
}

// Const returns a literal expression.
func Const(v model.Value) Expr { return ConstExpr{V: v} }

// VarRef is a reference to a local variable. VarRefs are created by
// Builder.Var and are also usable directly as expressions.
type VarRef struct {
	Index int
	Name  string
}

// String renders the variable name.
func (v VarRef) String() string { return v.Name }

func (v VarRef) compile(b *Builder, _ int) {
	if b.readable(v) {
		b.buf.nodes = append(b.buf.nodes, node{kind: nodeVar, v: model.Value(v.Index), span: 1})
	}
}

// BinOp enumerates binary operators available to programs.
type BinOp uint8

// Binary operators. Comparison and logical operators yield 0 or 1.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

// BinExpr applies a binary operator to two subexpressions. Division and
// modulus by zero yield zero rather than panicking: a deterministic
// automaton must have a total transition function.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

// String renders the expression with full parenthesisation.
func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
}

// compile carries a literal or variable right operand in the operator's
// node (nodeBinConst, nodeBinVar) instead of a node of its own.
func (e BinExpr) compile(b *Builder, depth int) {
	if e.Op > OpOr {
		b.fail("unknown binary operator %d", e.Op)
		return
	}
	start := len(b.buf.nodes)
	b.sub(e.L, depth+1)
	n := node{kind: nodeBin, op: e.Op}
	switch r := e.R.(type) {
	case ConstExpr:
		n.kind, n.v = nodeBinConst, r.V
	case VarRef:
		if !b.readable(r) {
			return
		}
		n.kind, n.v = nodeBinVar, model.Value(r.Index)
	default:
		b.sub(e.R, depth+1)
	}
	n.span = int32(len(b.buf.nodes) - start + 1)
	b.buf.nodes = append(b.buf.nodes, n)
}

// NotExpr is logical negation: 1 if the operand is zero, else 0.
type NotExpr struct{ E Expr }

// String renders !(e).
func (e NotExpr) String() string { return fmt.Sprintf("!%s", e.E) }

func (e NotExpr) compile(b *Builder, depth int) {
	start := len(b.buf.nodes)
	b.sub(e.E, depth+1)
	b.buf.nodes = append(b.buf.nodes, node{kind: nodeNot, span: int32(len(b.buf.nodes) - start + 1)})
}

// nodeKind tells a node's role in postfix evaluation.
type nodeKind uint8

const (
	nodeConst    nodeKind = iota // push v
	nodeVar                      // push env[v]
	nodeBin                      // pop r, pop l, push l op r
	nodeBinConst                 // replace the top l with l op v
	nodeBinVar                   // replace the top l with l op env[v]
	nodeNot                      // replace the top x with !x
)

// node is one compiled expression node: 16 bytes, no pointers. An
// expression is the run of nodes ending at its root, span nodes long, in
// postfix order. A nodeBin's right operand is the subtree ending just
// before it, and its left operand the one ending just before that; a
// nodeBinConst or nodeBinVar holds its right operand in v, and its left
// operand ends just before it.
type node struct {
	v    model.Value // a literal (nodeConst, nodeBinConst) or a variable index (nodeVar, nodeBinVar)
	span int32       // nodes in the subtree rooted here, this one included
	kind nodeKind
	op   BinOp // the operator of a binary node
}

// eval evaluates the expression rooted at node root in env. Compilation
// bounds an expression's nesting by MaxExprDepth, and postfix evaluation
// never holds more values than its expression's nesting depth, so the
// stack cannot overflow.
//
//repro:hotpath
func (p *Program) eval(root int32, env []model.Value) model.Value {
	n := &p.nodes[root]
	switch n.kind {
	case nodeConst:
		return n.v
	case nodeVar:
		return env[n.v]
	}
	var stack [MaxExprDepth]model.Value
	sp := 0
	for i := root - n.span + 1; i <= root; i++ {
		n := &p.nodes[i]
		switch n.kind {
		case nodeConst:
			stack[sp] = n.v
			sp++
		case nodeVar:
			stack[sp] = env[n.v]
			sp++
		case nodeBin:
			sp--
			stack[sp-1] = apply(n.op, stack[sp-1], stack[sp])
		case nodeBinConst:
			stack[sp-1] = apply(n.op, stack[sp-1], n.v)
		case nodeBinVar:
			stack[sp-1] = apply(n.op, stack[sp-1], env[n.v])
		case nodeNot:
			stack[sp-1] = b2v(stack[sp-1] == 0)
		}
	}
	return stack[0]
}

// apply applies a binary operator; division and modulus by zero yield 0.
//
//repro:hotpath
func apply(op BinOp, l, r model.Value) model.Value {
	switch op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			return 0
		}
		return l / r
	case OpMod:
		if r == 0 {
			return 0
		}
		return l % r
	case OpEq:
		return b2v(l == r)
	case OpNe:
		return b2v(l != r)
	case OpLt:
		return b2v(l < r)
	case OpLe:
		return b2v(l <= r)
	case OpGt:
		return b2v(l > r)
	case OpGe:
		return b2v(l >= r)
	case OpAnd:
		return b2v(l != 0 && r != 0)
	case OpOr:
		return b2v(l != 0 || r != 0)
	default:
		panic(badBinOp(op))
	}
}

// badBinOp formats the unknown-operator panic message.
//
//repro:hotpath-ok cold panic path: Build refuses unknown operators, so this is reached only on a corrupt node
func badBinOp(op BinOp) string {
	return fmt.Sprintf("program: unknown binary operator %d", op)
}

//repro:hotpath
func b2v(b bool) model.Value {
	if b {
		return 1
	}
	return 0
}

// tree rebuilds the expression rooted at node root as an Expr tree, for
// Instr and Disassemble.
func (p *Program) tree(root int32) Expr {
	n := &p.nodes[root]
	switch n.kind {
	case nodeConst:
		return ConstExpr{V: n.v}
	case nodeVar:
		return VarRef{Index: int(n.v), Name: p.VarNames[n.v]}
	case nodeNot:
		return NotExpr{E: p.tree(root - 1)}
	case nodeBinConst:
		return BinExpr{Op: n.op, L: p.tree(root - 1), R: ConstExpr{V: n.v}}
	case nodeBinVar:
		return BinExpr{Op: n.op, L: p.tree(root - 1), R: VarRef{Index: int(n.v), Name: p.VarNames[n.v]}}
	default:
		r := root - 1
		return BinExpr{Op: n.op, L: p.tree(r - p.nodes[r].span), R: p.tree(r)}
	}
}

// Convenience constructors. They keep algorithm definitions readable:
// Eq(x, Const(0)) rather than BinExpr{Op: OpEq, …}.

// Add returns l + r.
func Add(l, r Expr) Expr { return BinExpr{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return BinExpr{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return BinExpr{Op: OpMul, L: l, R: r} }

// Eq returns l == r (0 or 1).
func Eq(l, r Expr) Expr { return BinExpr{Op: OpEq, L: l, R: r} }

// Ne returns l != r (0 or 1).
func Ne(l, r Expr) Expr { return BinExpr{Op: OpNe, L: l, R: r} }

// Lt returns l < r (0 or 1).
func Lt(l, r Expr) Expr { return BinExpr{Op: OpLt, L: l, R: r} }

// Le returns l <= r (0 or 1).
func Le(l, r Expr) Expr { return BinExpr{Op: OpLe, L: l, R: r} }

// Gt returns l > r (0 or 1).
func Gt(l, r Expr) Expr { return BinExpr{Op: OpGt, L: l, R: r} }

// Ge returns l >= r (0 or 1).
func Ge(l, r Expr) Expr { return BinExpr{Op: OpGe, L: l, R: r} }

// And returns l && r (0 or 1).
func And(l, r Expr) Expr { return BinExpr{Op: OpAnd, L: l, R: r} }

// Or returns l || r (0 or 1).
func Or(l, r Expr) Expr { return BinExpr{Op: OpOr, L: l, R: r} }

// Not returns !e (0 or 1).
func Not(e Expr) Expr { return NotExpr{E: e} }
