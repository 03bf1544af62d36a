package mutex

import (
	"fmt"
	"strconv"

	"repro/internal/model"
	"repro/internal/program"
)

// Filter builds the filter lock, Peterson's generalization of his
// two-process algorithm to n processes: n-1 levels, each filtering out at
// least one process. A process at level l waits until either no other
// process is at level ≥ l or it is no longer the level's victim.
//
//	for l = 1 .. n-1:
//	    level[i] := l
//	    victim[l] := i
//	    for all j ≠ i:
//	        while level[j] ≥ l and victim[l] = i: busywait
//	exit: level[i] := 0
//
// The wait alternates reads of level[j] and victim[l] — a two-register
// busywait, charged per read in the SC model like Peterson's — and scans
// all n-1 rivals at each of n-1 levels: Θ(n²) work per passage even
// without contention.
func Filter(n int) (*Factory, error) {
	if n < 1 {
		return nil, fmt.Errorf("mutex: filter: n must be ≥ 1, got %d", n)
	}
	layout := NewLayout()
	level := make([]model.RegID, n)
	for i := 0; i < n; i++ {
		level[i] = layout.Reg(fmt.Sprintf("level[%d]", i), 0, i)
	}
	victim := make([]model.RegID, n) // victim[1..n-1] used
	for l := 1; l < n; l++ {
		victim[l] = layout.Reg(fmt.Sprintf("victim[%d]", l), 0, -1)
	}

	progs := make([]*program.Program, n)
	for i := 0; i < n; i++ {
		b := program.NewBuilder(fmt.Sprintf("filter/%d", i))
		x := b.Var("x")
		v := b.Var("v")
		me := program.Const(int64(i))
		stillVictim := program.Eq(v, me)

		b.Try()
		for l := 1; l < n; l++ {
			ls := strconv.Itoa(l)
			rivalLeft := program.Lt(x, program.Const(int64(l)))
			levelDone := "level_done_" + ls
			b.Write(level[i], program.Const(int64(l)))
			b.Write(victim[l], me)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				lj := ls + "_j" + strconv.Itoa(j)
				wait, pass := "wait_l"+lj, "pass_l"+lj
				b.Label(wait)
				b.Read(level[j], x)
				b.If(rivalLeft, pass)
				b.Read(victim[l], v)
				b.If(stillVictim, wait)
				// No longer the victim: the whole level's condition fails;
				// skip the remaining rivals at this level.
				b.Goto(levelDone)
				b.Label(pass)
			}
			b.Label(levelDone)
			b.Let(x, program.Const(0))
			b.Let(v, program.Const(0))
		}
		b.Enter()
		b.Exit()
		b.Write(level[i], program.Const(0))
		b.Rem()
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("mutex: filter: %w", err)
		}
		progs[i] = p
	}
	return NewFactory(fmt.Sprintf("filter(n=%d)", n), layout, progs), nil
}
