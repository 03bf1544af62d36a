// Package trace renders executions for humans: a per-process timeline of
// the interleaving with critical-section intervals, state-change charging,
// and register activity — the fastest way to see *why* an algorithm costs
// what it costs, or to inspect a counterexample from the verifier.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Options tunes the rendering.
type Options struct {
	// MaxSteps caps the number of rendered steps (0 = all).
	MaxSteps int
	// Registers annotates each write with the register name if non-nil.
	RegisterName func(model.RegID) string
	// ShowFree marks steps that the SC model does not charge.
	ShowFree bool
}

// Timeline renders the execution as one row per step with a column per
// process, from the steps and changed flags its System recorded (n is the
// process count). Each row shows which process moved and what it did; the
// acting process's column carries a glyph:
//
//	T E X Q   try / enter / exit / rem
//	w         write (always charged)
//	r         charged read
//	·         free read (busywait re-read; SC cost 0)
//	*         RMW
//
// A '█' block in a column marks a process inside its critical section.
func Timeline(n int, exec model.Execution, changed []bool, opt Options) string {
	var b strings.Builder

	// Header.
	b.WriteString("step  ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%-3d", i)
	}
	b.WriteString("  action\n")

	inCS := make([]bool, n)
	limit := len(exec)
	if opt.MaxSteps > 0 && opt.MaxSteps < limit {
		limit = opt.MaxSteps
	}
	for t, s := range exec[:limit] {
		glyph := ""
		switch s.Kind {
		case model.KindCrit:
			switch s.Crit {
			case model.CritTry:
				glyph = "T"
			case model.CritEnter:
				glyph = "E"
				inCS[s.Proc] = true
			case model.CritExit:
				glyph = "X"
				inCS[s.Proc] = false
			case model.CritRem:
				glyph = "Q"
			}
		case model.KindWrite:
			glyph = "w"
		case model.KindRead:
			if changed[t] {
				glyph = "r"
			} else {
				glyph = "·"
			}
		case model.KindRMW:
			glyph = "*"
		}

		fmt.Fprintf(&b, "%5d ", t)
		for i := 0; i < n; i++ {
			cell := " "
			if inCS[i] && i != s.Proc {
				cell = "█"
			}
			if i == s.Proc {
				cell = glyph
			}
			fmt.Fprintf(&b, "%-4s", cell)
		}
		b.WriteString("  ")
		b.WriteString(describe(s, changed[t], opt))
		b.WriteByte('\n')
	}
	if limit < len(exec) {
		fmt.Fprintf(&b, "… %d more steps\n", len(exec)-limit)
	}
	return b.String()
}

func describe(s model.Step, charged bool, opt Options) string {
	name := func(r model.RegID) string {
		if opt.RegisterName != nil {
			return opt.RegisterName(r)
		}
		return fmt.Sprintf("r%d", r)
	}
	var d string
	switch s.Kind {
	case model.KindCrit:
		d = fmt.Sprintf("%s_%d", s.Crit, s.Proc)
	case model.KindWrite:
		d = fmt.Sprintf("p%d writes %s := %d", s.Proc, name(s.Reg), s.Val)
	case model.KindRead:
		d = fmt.Sprintf("p%d reads %s = %d", s.Proc, name(s.Reg), s.Val)
	case model.KindRMW:
		d = fmt.Sprintf("p%d %s %s -> %d", s.Proc, s.RMW, name(s.Reg), s.Val)
	}
	if opt.ShowFree && s.Kind == model.KindRead && !charged {
		d += "  (free)"
	}
	return d
}

// Summary renders per-process totals from the steps and changed flags a
// System recorded: steps, charged steps, CS interval.
func Summary(n int, exec model.Execution, changed []bool) string {
	steps := make([]int, n)
	charged := make([]int, n)
	enterAt := make([]int, n)
	exitAt := make([]int, n)
	for i := range enterAt {
		enterAt[i], exitAt[i] = -1, -1
	}
	for t, s := range exec {
		steps[s.Proc]++
		if changed[t] && s.IsShared() {
			charged[s.Proc]++
		}
		if s.Kind == model.KindCrit {
			switch s.Crit {
			case model.CritEnter:
				enterAt[s.Proc] = t
			case model.CritExit:
				exitAt[s.Proc] = t
			}
		}
	}
	var b strings.Builder
	b.WriteString("proc  steps  SC-cost  CS-interval\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%-4d %-6d %-8d [%d, %d]\n", i, steps[i], charged[i], enterAt[i], exitAt[i])
	}
	return b.String()
}
