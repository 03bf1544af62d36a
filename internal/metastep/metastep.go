// Package metastep implements Definition 5.1 of the paper: metasteps,
// partial orders over them, and linearization (the Seq, Lin and Plin
// procedures of Figure 1; Plin is LinSubset over an ancestor set).
//
// A metastep bundles a set of same-register steps so that expanding it —
// non-winning writes first, then the winning write, then the reads — hides
// every contained process except possibly the winner: the winning write
// immediately overwrites the others, and the reads all return the winner's
// value. The construction step (internal/construct) produces a set of
// metasteps M and partial order ≼; every linearization of (M, ≼) is an
// execution of the algorithm in which processes enter their critical
// sections in the chosen permutation's order (Theorem 5.5).
package metastep

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/model"
)

// ID identifies a metastep within a Set; IDs are dense and in creation
// order.
type ID int

// None is the absent-metastep sentinel.
const None ID = -1

// Type classifies a metastep: read, write, or critical (Definition 5.1).
type Type uint8

// Metastep types.
const (
	// TypeRead is a read metastep: a single read step, no winner.
	TypeRead Type = iota
	// TypeWrite is a write metastep: a winning write plus any number of
	// hidden writes and reads, all on the same register.
	TypeWrite
	// TypeCrit is a critical metastep: a single critical step.
	TypeCrit
)

// String returns R, W or C.
func (t Type) String() string {
	switch t {
	case TypeRead:
		return "R"
	case TypeWrite:
		return "W"
	case TypeCrit:
		return "C"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Meta is one metastep. Which fields are used depends on Type:
//
//	TypeRead:  Reg, Reads (exactly one step), PreadOf
//	TypeWrite: Reg, Win, Writes (non-winning), Reads, Pread
//	TypeCrit:  Crit
type Meta struct {
	ID   ID
	Type Type
	Reg  model.RegID

	Reads  []model.Step // read(m): read steps, at most one per process
	Writes []model.Step // write(m): non-winning write steps
	Win    model.Step   // win(m): the winning write (TypeWrite only)
	Crit   model.Step   // crit(m) (TypeCrit only)

	// Pread is the preread set pread(m) of a write metastep: read
	// metasteps that must be ordered before it (Figure 1, lines 21-24).
	Pread []ID
	// PreadOf records, for a read metastep, the write metastep whose
	// preread set contains it (None if none). The encoding's PR/SR tag
	// distinction (Figure 2, lines 12-14) depends on it; Theorem 6.2's
	// accounting relies on each read metastep being a preread of at most
	// one write metastep.
	PreadOf ID
}

// Value returns val(m): the value written by the winning step.
func (m *Meta) Value() model.Value { return m.Win.Val }

// Owners returns own(m): the processes taking a step in m, in ascending
// order.
func (m *Meta) Owners() []int {
	var out []int
	switch m.Type {
	case TypeCrit:
		out = append(out, m.Crit.Proc)
	case TypeRead:
		for _, s := range m.Reads {
			out = append(out, s.Proc)
		}
	case TypeWrite:
		out = append(out, m.Win.Proc)
		for _, s := range m.Writes {
			out = append(out, s.Proc)
		}
		for _, s := range m.Reads {
			out = append(out, s.Proc)
		}
	}
	sort.Ints(out)
	return out
}

// StepOf returns step(m, i): the step process i takes in m, if any.
func (m *Meta) StepOf(i int) (model.Step, bool) {
	if m.Type == TypeCrit {
		if m.Crit.Proc == i {
			return m.Crit, true
		}
		return model.Step{}, false
	}
	if m.Type == TypeWrite && m.Win.Proc == i {
		return m.Win, true
	}
	for _, s := range m.Writes {
		if s.Proc == i {
			return s, true
		}
	}
	for _, s := range m.Reads {
		if s.Proc == i {
			return s, true
		}
	}
	return model.Step{}, false
}

// Size returns the number of steps contained in the metastep.
func (m *Meta) Size() int {
	switch m.Type {
	case TypeCrit:
		return 1
	case TypeRead:
		return len(m.Reads)
	default:
		return 1 + len(m.Writes) + len(m.Reads)
	}
}

// String summarizes the metastep.
func (m *Meta) String() string {
	switch m.Type {
	case TypeCrit:
		return fmt.Sprintf("m%d[C %v]", m.ID, m.Crit)
	case TypeRead:
		return fmt.Sprintf("m%d[R r%d %v preadOf=%d]", m.ID, m.Reg, m.Reads, m.PreadOf)
	default:
		return fmt.Sprintf("m%d[W r%d win=%v writes=%v reads=%v pread=%v]", m.ID, m.Reg, m.Win, m.Writes, m.Reads, m.Pread)
	}
}

// Set is a growing collection of metasteps with a partial order ≼
// maintained as a DAG (edges are the paper's explicitly added relations;
// ≼ is their reflexive-transitive closure).
type Set struct {
	n     int
	metas []*Meta
	succs [][]ID
	preds [][]ID

	// writesByReg holds write metasteps per register in creation order.
	// Lemma 5.3: this order IS the total order ≼ restricted to them —
	// a new write metastep on ℓ is only created when every existing one
	// is ≼ the creator's previous metastep, hence ≼ the new one.
	writesByReg map[model.RegID][]ID
	// readsByReg holds read metasteps per register in creation order.
	readsByReg map[model.RegID][]ID
	// chains holds, per process, the metasteps containing it in chain
	// order (each process's metasteps are totally ordered: every new or
	// joined metastep is ordered after the process's previous one).
	chains [][]ID
}

// NewSet creates an empty metastep set for n processes.
func NewSet(n int) *Set {
	return &Set{
		n:           n,
		writesByReg: make(map[model.RegID][]ID),
		readsByReg:  make(map[model.RegID][]ID),
		chains:      make([][]ID, n),
	}
}

// N returns the number of processes.
func (s *Set) N() int { return s.n }

// Len returns the number of metasteps.
func (s *Set) Len() int { return len(s.metas) }

// Meta returns the metastep with the given ID.
func (s *Set) Meta(id ID) *Meta { return s.metas[id] }

// Chain returns process i's metasteps in chain order. The returned slice is
// owned by the set.
func (s *Set) Chain(i int) []ID { return s.chains[i] }

// WritesOn returns the write metasteps on register reg, in ≼ order.
func (s *Set) WritesOn(reg model.RegID) []ID { return s.writesByReg[reg] }

// ReadsOn returns the read metasteps on register reg, in creation order.
func (s *Set) ReadsOn(reg model.RegID) []ID { return s.readsByReg[reg] }

// Succs returns the direct successors of id in the explicit edge relation.
func (s *Set) Succs(id ID) []ID { return s.succs[id] }

func (s *Set) add(m *Meta) *Meta {
	m.ID = ID(len(s.metas))
	m.PreadOf = None
	s.metas = append(s.metas, m)
	s.succs = append(s.succs, nil)
	s.preds = append(s.preds, nil)
	return m
}

// NewWriteMeta creates a write metastep with the given winning step.
func (s *Set) NewWriteMeta(win model.Step) *Meta {
	if win.Kind != model.KindWrite {
		panic(fmt.Sprintf("metastep: winning step must be a write, got %v", win))
	}
	m := s.add(&Meta{Type: TypeWrite, Reg: win.Reg, Win: win})
	s.writesByReg[win.Reg] = append(s.writesByReg[win.Reg], m.ID)
	s.chains[win.Proc] = append(s.chains[win.Proc], m.ID)
	return m
}

// NewReadMeta creates a read metastep containing the single read step.
func (s *Set) NewReadMeta(read model.Step) *Meta {
	if read.Kind != model.KindRead {
		panic(fmt.Sprintf("metastep: read metastep requires a read step, got %v", read))
	}
	m := s.add(&Meta{Type: TypeRead, Reg: read.Reg, Reads: []model.Step{read}})
	s.readsByReg[read.Reg] = append(s.readsByReg[read.Reg], m.ID)
	s.chains[read.Proc] = append(s.chains[read.Proc], m.ID)
	return m
}

// NewCritMeta creates a critical metastep.
func (s *Set) NewCritMeta(crit model.Step) *Meta {
	if crit.Kind != model.KindCrit {
		panic(fmt.Sprintf("metastep: critical metastep requires a critical step, got %v", crit))
	}
	m := s.add(&Meta{Type: TypeCrit, Crit: crit})
	s.chains[crit.Proc] = append(s.chains[crit.Proc], m.ID)
	return m
}

// JoinWrite inserts a non-winning write step into write metastep id
// (Figure 1, line 16): the step will be overwritten by the winner in every
// linearization, hiding its process.
func (s *Set) JoinWrite(id ID, step model.Step) {
	m := s.metas[id]
	if m.Type != TypeWrite || step.Kind != model.KindWrite || step.Reg != m.Reg {
		panic(fmt.Sprintf("metastep: cannot join write %v into %v", step, m))
	}
	m.Writes = append(m.Writes, step)
	s.chains[step.Proc] = append(s.chains[step.Proc], id)
}

// JoinRead inserts a read step into write metastep id (Figure 1, line 30):
// in every linearization the read returns the winner's value.
func (s *Set) JoinRead(id ID, step model.Step) {
	m := s.metas[id]
	if m.Type != TypeWrite || step.Kind != model.KindRead || step.Reg != m.Reg {
		panic(fmt.Sprintf("metastep: cannot join read %v into %v", step, m))
	}
	m.Reads = append(m.Reads, step)
	s.chains[step.Proc] = append(s.chains[step.Proc], id)
}

// SetPread records the preread set of write metastep id and marks each read
// metastep as a preread of it. It panics if a read metastep is already a
// preread of another write metastep (the accounting of Theorem 6.2 would
// break).
func (s *Set) SetPread(id ID, reads []ID) {
	m := s.metas[id]
	for _, r := range reads {
		rm := s.metas[r]
		if rm.Type != TypeRead {
			panic(fmt.Sprintf("metastep: preread %v of %v is not a read metastep", rm, m))
		}
		if rm.PreadOf != None {
			panic(fmt.Sprintf("metastep: %v is already a preread of m%d", rm, rm.PreadOf))
		}
		rm.PreadOf = id
	}
	m.Pread = append([]ID(nil), reads...)
}

// AddEdge orders a before b (a ≼ b).
func (s *Set) AddEdge(a, b ID) {
	if a == b {
		return
	}
	s.succs[a] = append(s.succs[a], b)
	s.preds[b] = append(s.preds[b], a)
}

// ExtendAncestors marks {µ : µ ≼ m} in anc, an ancestor set indexed by
// ID, and returns anc grown to Len() with queue, the search's scratch
// space, for reuse. The reverse breadth-first search over the explicit
// edges stops at metasteps anc already marks, so anc must be downward
// closed (every ancestor of a marked metastep is marked), as every set
// built by ExtendAncestors alone is while the edges into its members stay
// fixed. Then each metastep is visited once however many calls grow the
// same set. m == None only grows anc.
func (s *Set) ExtendAncestors(anc []bool, m ID, queue []ID) ([]bool, []ID) {
	if grow := len(s.metas) - len(anc); grow > 0 {
		anc = append(anc, make([]bool, grow)...)
	}
	if m == None || anc[m] {
		return anc, queue
	}
	anc[m] = true
	return anc, s.markAncestors(anc, append(queue[:0], m))
}

// Maximal returns the ≼-maximal elements of cands, in the order given. A
// candidate is not maximal exactly when it is a proper ancestor of another
// candidate, so one reverse search from the candidates marks every such
// candidate. No candidate may lie in anc, a downward-closed set such as an
// ancestor set: then no path between two candidates passes through anc,
// and the search never enters it. The search marks what it visits in anc
// and clears those marks before it returns, so anc comes back as it was;
// queue is scratch space, returned for reuse.
func (s *Set) Maximal(cands []ID, anc []bool, queue []ID) ([]ID, []ID) {
	queue = s.markAncestors(anc, append(queue[:0], cands...))
	var maximal []ID
	for _, c := range cands {
		if !anc[c] {
			maximal = append(maximal, c)
		}
	}
	for _, id := range queue {
		anc[id] = false
	}
	return maximal, queue
}

// markAncestors marks in anc every unmarked metastep ordered before one in
// queue, appending each to queue as it marks it, and returns queue: a
// reverse breadth-first search that does not pass through marked
// metasteps.
func (s *Set) markAncestors(anc []bool, queue []ID) []ID {
	for k := 0; k < len(queue); k++ {
		for _, p := range s.preds[queue[k]] {
			if !anc[p] {
				anc[p] = true
				queue = append(queue, p)
			}
		}
	}
	return queue
}

// CheckAcyclic verifies the explicit edges form a DAG, i.e. ≼ is a partial
// order (Lemma 5.2).
func (s *Set) CheckAcyclic() error {
	indeg := make([]int, len(s.metas))
	for _, succ := range s.succs {
		for _, b := range succ {
			indeg[b]++
		}
	}
	var queue []ID
	for id := range s.metas {
		if indeg[id] == 0 {
			queue = append(queue, ID(id))
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		seen++
		for _, b := range s.succs[cur] {
			indeg[b]--
			if indeg[b] == 0 {
				queue = append(queue, b)
			}
		}
	}
	if seen != len(s.metas) {
		return fmt.Errorf("metastep: edge relation has a cycle (%d of %d metasteps sorted)", seen, len(s.metas))
	}
	return nil
}

// Seq expands a metastep into a step sequence (Figure 1, procedure Seq):
// non-winning writes, then the winning write, then the reads. Seq is
// nondeterministic in the paper; here the within-class order is chosen by
// the supplied rng, or ascending by process when rng is nil (the canonical
// expansion).
func Seq(m *Meta, rng *rand.Rand) model.Execution {
	if m.Type == TypeCrit {
		return model.Execution{m.Crit}
	}
	writes := append(model.Execution(nil), m.Writes...)
	reads := append(model.Execution(nil), m.Reads...)
	if rng == nil {
		sort.Slice(writes, func(a, b int) bool { return writes[a].Proc < writes[b].Proc })
		sort.Slice(reads, func(a, b int) bool { return reads[a].Proc < reads[b].Proc })
	} else {
		rng.Shuffle(len(writes), func(a, b int) { writes[a], writes[b] = writes[b], writes[a] })
		rng.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
	}
	out := writes
	if m.Type == TypeWrite {
		out = append(out, m.Win)
	}
	return append(out, reads...)
}

// TopoOrder returns a total order of the given subset (nil means all
// metasteps) consistent with ≼. With a nil rng ties break by ascending ID
// (the canonical order); otherwise ties break uniformly at random.
func (s *Set) TopoOrder(subset []bool, rng *rand.Rand) ([]ID, error) {
	indeg := make([]int, len(s.metas))
	in := func(id ID) bool { return subset == nil || subset[id] }
	total := 0
	for id := range s.metas {
		if !in(ID(id)) {
			continue
		}
		total++
		for _, p := range s.preds[id] {
			if in(p) {
				indeg[id]++
			}
		}
	}
	var avail []ID
	for id := range s.metas {
		if in(ID(id)) && indeg[id] == 0 {
			avail = append(avail, ID(id))
		}
	}
	order := make([]ID, 0, total)
	for len(avail) > 0 {
		var k int
		if rng == nil {
			k = 0
			for j := 1; j < len(avail); j++ {
				if avail[j] < avail[k] {
					k = j
				}
			}
		} else {
			k = rng.Intn(len(avail))
		}
		cur := avail[k]
		avail = append(avail[:k], avail[k+1:]...)
		order = append(order, cur)
		for _, b := range s.succs[cur] {
			if !in(b) {
				continue
			}
			indeg[b]--
			if indeg[b] == 0 {
				avail = append(avail, b)
			}
		}
	}
	if len(order) != total {
		return nil, fmt.Errorf("metastep: cycle detected while linearizing (%d of %d ordered)", len(order), total)
	}
	return order, nil
}

// Lin produces a linearization of the whole set (Figure 1, procedure Lin):
// a canonical one for nil rng, a random one otherwise.
func (s *Set) Lin(rng *rand.Rand) (model.Execution, error) {
	return s.LinSubset(nil, rng)
}

// LinSubset linearizes the metasteps marked in subset (nil means all).
func (s *Set) LinSubset(subset []bool, rng *rand.Rand) (model.Execution, error) {
	order, err := s.TopoOrder(subset, rng)
	if err != nil {
		return nil, err
	}
	var out model.Execution
	for _, id := range order {
		out = append(out, Seq(s.metas[id], rng)...)
	}
	return out, nil
}

// TotalSteps returns the number of steps across all metasteps.
func (s *Set) TotalSteps() int {
	total := 0
	for _, m := range s.metas {
		total += m.Size()
	}
	return total
}
