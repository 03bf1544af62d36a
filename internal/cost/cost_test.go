package cost_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
)

// twoReaders: p0 writes r0; p1 and p2 read it twice each — enough structure
// to distinguish the cost models by hand.
func twoReaders(t *testing.T) program.Factory {
	t.Helper()
	layout := mutex.NewLayout()
	flag := layout.Reg("flag", 0, 0) // home: process 0

	b0 := program.NewBuilder("w/0")
	b0.Try()
	b0.Write(flag, program.Const(1))
	b0.Enter()
	b0.Exit()
	b0.Rem()
	b0.Halt()
	p0 := b0.MustBuild()

	mkReader := func(i int) *program.Program {
		b := program.NewBuilder("r")
		x := b.Var("x")
		y := b.Var("y")
		b.Try()
		b.Read(flag, x)
		b.Read(flag, y)
		b.Enter()
		b.Exit()
		b.Rem()
		b.Halt()
		return b.MustBuild()
	}
	return mutex.NewFactory("two-readers", layout, []*program.Program{p0, mkReader(1), mkReader(2)})
}

func TestMeasureByHand(t *testing.T) {
	f := twoReaders(t)
	// Schedule: everything sequentially, p0 first.
	exec, err := machine.RunCanonical(f, machine.NewSolo(perm.Identity(3)), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cost.Measure(f, exec)
	if err != nil {
		t.Fatal(err)
	}
	// Steps: 3 procs * 4 crit + 1 write + 4 reads = 17.
	if rep.Steps != 17 || rep.CritSteps != 12 || rep.SharedAccesses != 5 {
		t.Fatalf("step counts wrong: %+v", rep)
	}
	// SC: write (1) + every read changes state (pc advances, plain reads) = 5.
	if rep.SC != 5 {
		t.Fatalf("SC = %d, want 5", rep.SC)
	}
	// CC: write is 1 RMR; each reader's first read misses (1), second hits
	// (0): total 1 + 2 = 3.
	if rep.CCRMR != 3 {
		t.Fatalf("CC-RMR = %d, want 3", rep.CCRMR)
	}
	// DSM: home of flag is p0, so p0's write is local (0), all 4 reads
	// remote: 4.
	if rep.DSMRMR != 4 {
		t.Fatalf("DSM-RMR = %d, want 4", rep.DSMRMR)
	}
}

func TestCCInvalidation(t *testing.T) {
	// p1 reads (miss), p0 writes (invalidate), p1 reads again (miss again).
	f := twoReaders(t)
	s := machine.NewSystem(f)
	mustStep := func(i int) {
		t.Helper()
		if _, err := s.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	mustStep(1) // try_1
	mustStep(1) // read (miss)
	mustStep(0) // try_0
	mustStep(0) // write (invalidates p1's copy)
	mustStep(1) // read (miss again)
	rep, err := cost.Measure(f, s.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CCRMR != 3 {
		t.Fatalf("CC-RMR = %d, want 3 (miss, write, miss-after-invalidate)", rep.CCRMR)
	}
}

func TestSCFreeSpins(t *testing.T) {
	// Under round-robin, readers spin-free? twoReaders has plain reads, so
	// use Yang-Anderson: spinning reads on unchanged values are free.
	f, err := mutex.YangAnderson(8)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := machine.RunCanonical(f, machine.NewRoundRobin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cost.Measure(f, exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SC >= rep.SharedAccesses {
		t.Fatalf("SC=%d should be strictly below accesses=%d (spins must be discounted)", rep.SC, rep.SharedAccesses)
	}
}

func TestMeasureRejectsInvalidExecution(t *testing.T) {
	f := twoReaders(t)
	bad := model.Execution{{Proc: 0, Kind: model.KindWrite, Reg: 0, Val: 9}}
	if _, err := cost.Measure(f, bad); err == nil {
		t.Fatal("invalid execution accepted")
	}
}

func TestReportString(t *testing.T) {
	rep := cost.Report{Steps: 10, SharedAccesses: 8, CritSteps: 2, SC: 5, CCRMR: 4, DSMRMR: 6}
	s := rep.String()
	for _, want := range []string{"SC=5", "CC-RMR=4", "DSM-RMR=6", "steps=10"} {
		found := false
		for i := 0; i+len(want) <= len(s); i++ {
			if s[i:i+len(want)] == want {
				found = true
			}
		}
		if !found {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

// TestLocalSpinDSMAdvantage: Yang–Anderson's spin flags are DSM-local, so
// its DSM-RMR is below its total accesses even under heavy spinning.
func TestLocalSpinDSMAdvantage(t *testing.T) {
	f, err := mutex.YangAnderson(8)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := machine.RunCanonical(f, machine.NewHoldCS(100), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cost.Measure(f, exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DSMRMR*2 > rep.SharedAccesses {
		t.Fatalf("DSM-RMR=%d should be well below accesses=%d for a local-spin algorithm under contention", rep.DSMRMR, rep.SharedAccesses)
	}
}
