package model_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestStepString(t *testing.T) {
	cases := []struct {
		step model.Step
		want string
	}{
		{model.Step{Proc: 3, Kind: model.KindWrite, Reg: 5, Val: 1}, "write_3(r5,1)"},
		{model.Step{Proc: 0, Kind: model.KindRead, Reg: 2, Val: 9}, "read_0(r2)=9"},
		{model.Step{Proc: 7, Kind: model.KindCrit, Crit: model.CritEnter}, "enter_7"},
		{model.Step{Proc: 1, Kind: model.KindRMW, RMW: model.RMWCompareAndSwap, Reg: 0, Arg1: 2, Arg2: 3, Val: 2}, "CAS_1(r0,2,3)=2"},
	}
	for _, c := range cases {
		if got := c.step.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSameOperation(t *testing.T) {
	r1 := model.Step{Proc: 1, Kind: model.KindRead, Reg: 4, Val: 10}
	r2 := model.Step{Proc: 1, Kind: model.KindRead, Reg: 4, Val: 99}
	if !r1.SameOperation(r2) {
		t.Error("reads with different recorded values are the same operation")
	}
	w1 := model.Step{Proc: 1, Kind: model.KindWrite, Reg: 4, Val: 10}
	w2 := model.Step{Proc: 1, Kind: model.KindWrite, Reg: 4, Val: 11}
	if w1.SameOperation(w2) {
		t.Error("writes with different values are different operations")
	}
	if r1.SameOperation(w1) {
		t.Error("read and write are different operations")
	}
	if w1.SameOperation(model.Step{Proc: 2, Kind: model.KindWrite, Reg: 4, Val: 10}) {
		t.Error("different processes are different operations")
	}
	c1 := model.Step{Proc: 1, Kind: model.KindCrit, Crit: model.CritTry}
	if !c1.SameOperation(model.Step{Proc: 1, Kind: model.KindCrit, Crit: model.CritTry}) {
		t.Error("identical crit steps must match")
	}
	if c1.SameOperation(model.Step{Proc: 1, Kind: model.KindCrit, Crit: model.CritExit}) {
		t.Error("different crit kinds are different operations")
	}
}

func TestExecutionProjectPrefix(t *testing.T) {
	exec := model.Execution{
		{Proc: 0, Kind: model.KindCrit, Crit: model.CritTry},
		{Proc: 1, Kind: model.KindCrit, Crit: model.CritTry},
		{Proc: 0, Kind: model.KindWrite, Reg: 0, Val: 1},
		{Proc: 1, Kind: model.KindRead, Reg: 0, Val: 1},
		{Proc: 0, Kind: model.KindCrit, Crit: model.CritEnter},
	}
	if got := exec.Project(0); len(got) != 3 {
		t.Fatalf("Project(0) has %d steps, want 3", len(got))
	}
	if got := exec.Prefix(2); len(got) != 2 {
		t.Fatalf("Prefix(2) has %d steps, want 2", len(got))
	}
	if got := exec.Prefix(100); len(got) != len(exec) {
		t.Fatalf("over-long prefix has %d steps, want %d", len(got), len(exec))
	}
	if got := exec.EntryOrder(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("EntryOrder = %v, want [0]", got)
	}
	if got := exec.CritSteps(1); len(got) != 1 {
		t.Fatalf("CritSteps(1) = %v", got)
	}
	if got := exec.CritSteps(-1); len(got) != 3 {
		t.Fatalf("CritSteps(-1) has %d, want 3", len(got))
	}
}

func TestExecutionCloneEqual(t *testing.T) {
	exec := model.Execution{{Proc: 0, Kind: model.KindWrite, Reg: 1, Val: 2}}
	cp := exec.Clone()
	if !exec.Equal(cp) {
		t.Fatal("clone not equal")
	}
	cp[0].Val = 3
	if exec.Equal(cp) {
		t.Fatal("clone shares backing array")
	}
	if exec.Equal(exec[:0]) {
		t.Fatal("different lengths must not be equal")
	}
}

func TestRegistersBasics(t *testing.T) {
	r := model.NewRegisters(3, []model.Value{1, 2, 3})
	if r.Len() != 3 || r.Read(1) != 2 {
		t.Fatalf("bad init: %v", r.Snapshot())
	}
	r.Write(1, 9)
	snap := r.Snapshot()
	r.Write(1, 0)
	r.Restore(snap)
	if r.Read(1) != 9 {
		t.Fatal("Restore did not restore")
	}
	c := r.Clone()
	c.Write(0, 100)
	if r.Read(0) == 100 {
		t.Fatal("Clone shares storage")
	}
}

func TestRegistersPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad init length", func() { model.NewRegisters(2, []model.Value{1}) })
	mustPanic("bad restore length", func() { model.NewRegisters(2, nil).Restore([]model.Value{1}) })
}

func TestApplyRMW(t *testing.T) {
	r := model.NewRegisters(1, nil)
	if old := r.ApplyRMW(0, model.RMWTestAndSet, 0, 0); old != 0 || r.Read(0) != 1 {
		t.Fatalf("TAS: old=%d reg=%d", old, r.Read(0))
	}
	if old := r.ApplyRMW(0, model.RMWCompareAndSwap, 1, 5); old != 1 || r.Read(0) != 5 {
		t.Fatalf("CAS success: old=%d reg=%d", old, r.Read(0))
	}
	if old := r.ApplyRMW(0, model.RMWCompareAndSwap, 99, 7); old != 5 || r.Read(0) != 5 {
		t.Fatalf("CAS failure must not write: old=%d reg=%d", old, r.Read(0))
	}
	if old := r.ApplyRMW(0, model.RMWFetchAndStore, 11, 0); old != 5 || r.Read(0) != 11 {
		t.Fatalf("FAS: old=%d reg=%d", old, r.Read(0))
	}
	if old := r.ApplyRMW(0, model.RMWFetchAndAdd, 4, 0); old != 11 || r.Read(0) != 15 {
		t.Fatalf("FAA: old=%d reg=%d", old, r.Read(0))
	}
}

// TestSnapshotRestoreRoundTrip: property — restore(snapshot()) is identity.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	err := quick.Check(func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		r := model.NewRegisters(len(vals), vals)
		snap := r.Snapshot()
		for i := range vals {
			r.Write(model.RegID(i), 0)
		}
		r.Restore(snap)
		for i, v := range vals {
			if r.Read(model.RegID(i)) != v {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	for _, c := range []struct {
		s    interface{ String() string }
		want string
	}{
		{model.KindRead, "R"}, {model.KindWrite, "W"}, {model.KindCrit, "C"}, {model.KindRMW, "RMW"},
		{model.CritTry, "try"}, {model.CritEnter, "enter"}, {model.CritExit, "exit"}, {model.CritRem, "rem"},
		{model.RMWTestAndSet, "TAS"}, {model.RMWCompareAndSwap, "CAS"},
		{model.RMWFetchAndStore, "FAS"}, {model.RMWFetchAndAdd, "FAA"},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains(model.Kind(99).String(), "99") {
		t.Error("unknown kind should include the raw value")
	}
}

// fmtStep is the fmt rendering Step.String had before it appended
// without fmt; the stored sweep hashes are digests of these bytes.
func fmtStep(s model.Step) string {
	switch s.Kind {
	case model.KindRead:
		return fmt.Sprintf("read_%d(r%d)=%d", s.Proc, s.Reg, s.Val)
	case model.KindWrite:
		return fmt.Sprintf("write_%d(r%d,%d)", s.Proc, s.Reg, s.Val)
	case model.KindCrit:
		return fmt.Sprintf("%s_%d", s.Crit, s.Proc)
	case model.KindRMW:
		return fmt.Sprintf("%s_%d(r%d,%d,%d)=%d", s.RMW, s.Proc, s.Reg, s.Arg1, s.Arg2, s.Val)
	default:
		return fmt.Sprintf("step_%d(kind=%d)", s.Proc, s.Kind)
	}
}

// TestAppendMatchesFmt: Step.Append and Execution.Append give the bytes
// fmt gave, for every kind (unknown kinds and sub-kinds included) and any
// field values, after whatever b already holds.
func TestAppendMatchesFmt(t *testing.T) {
	check := func(proc int, kind, crit, rmw uint8, reg int, val, arg1, arg2 int64) bool {
		s := model.Step{
			Proc: proc, Kind: model.Kind(kind % 6), Reg: model.RegID(reg), Val: val,
			Crit: model.CritKind(crit % 6), RMW: model.RMWKind(rmw % 6), Arg1: arg1, Arg2: arg2,
		}
		want := fmtStep(s)
		exec := model.Execution{s, s}
		return s.String() == want && string(s.Append([]byte("x"))) == "x"+want &&
			exec.String() == want+" "+want && string(exec.Append([]byte("y"))) == "y"+want+" "+want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if got := (model.Execution{}).String(); got != "" {
		t.Fatalf("empty execution renders %q", got)
	}
}
