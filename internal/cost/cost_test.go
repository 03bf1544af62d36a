package cost_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
	_ "repro/internal/rmw" // registers tas and mcs
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

// TestReplayRejectsForeignExecution: a step that is not the acting
// process's pending step (p0 must try before it writes) is refused by the
// replay every outside execution enters through, and so by Measure.
func TestReplayRejectsForeignExecution(t *testing.T) {
	f, err := mutex.YangAnderson(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := model.Execution{{Proc: 0, Kind: model.KindWrite, Reg: 0, Val: 1}}
	if _, _, err := machine.ReplayExecution(f, bad); err == nil {
		t.Fatal("foreign execution accepted by ReplayExecution")
	}
	if _, err := cost.Measure(f, bad); err == nil {
		t.Fatal("foreign execution accepted by Measure")
	}
}

// TestRunAndReplayAgree pins the one source of charges. For every
// registered algorithm under every scheduler family, run to completion and
// cut short at half its length, ReplayExecution must recover exactly the
// steps and changed flags the run's System recorded, and Of over those
// flags must equal Measure's replay. The Report an Acc streams as the
// steps execute must equal Of over the recorded run, whether the System
// records beside it or streams alone. SC must count exactly the shared
// steps whose flag is set: a critical step's flag is set on every run, so
// charging it would break Definition 3.1 in Of and Measure alike.
func TestRunAndReplayAgree(t *testing.T) {
	for _, name := range mutex.Names() {
		for _, n := range []int{2, 3, 4, 8} {
			if name == mutex.NameDekker && n != 2 {
				continue
			}
			f, err := mutex.New(name, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			for _, spec := range []machine.Spec{
				machine.RoundRobinSpec(), machine.RandomSpec(int64(n)), machine.ProgressFirstSpec(),
				machine.HoldCSSpec(n), machine.GreedyCostSpec(),
			} {
				full := runFor(t, f, spec, machine.DefaultHorizon(n))
				half := runFor(t, f, spec, len(full.sys.Trace())/2)
				for _, r := range []run{full, half} {
					exec, changed := r.sys.Trace(), r.sys.Changed()
					at := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("%s n=%d %s (%d steps): "+format, append([]any{name, n, spec, len(exec)}, args...)...)
					}
					done, flags, err := machine.ReplayExecution(f, exec)
					if err != nil {
						at("ReplayExecution: %v", err)
					}
					if !done.Equal(exec) || !slices.Equal(flags, changed) {
						at("ReplayExecution returned other steps or flags than the run recorded")
					}
					rep := cost.Of(f, exec, changed)
					if want, err := cost.Measure(f, exec); err != nil || rep != want {
						at("Of = %v, Measure = %v (err %v)", rep, want, err)
					}
					if r.recorded != rep {
						at("Acc beside the recording = %v, Of over the recorded run = %v", r.recorded, rep)
					}
					if r.streamed != rep {
						at("Acc streaming alone = %v, Of over the recorded run = %v", r.streamed, rep)
					}
					sc := 0
					for i, st := range exec {
						if !st.IsShared() && !changed[i] {
							at("critical step %d recorded unchanged", i)
						}
						if st.IsShared() && changed[i] {
							sc++
						}
					}
					if rep.SC != sc {
						at("SC = %d, want the %d shared steps whose flag is set", rep.SC, sc)
					}
				}
			}
		}
	}
}

// run is one execution driven on two Systems: sys records its steps
// beside the Acc that reported recorded, and a second System streamed the
// same steps into an Acc alone, which reported streamed.
type run struct {
	sys                *machine.System
	recorded, streamed cost.Report
}

// runFor drives f under spec for at most horizon steps, on a recording
// System and on one that streams alone; a run cut short by the horizon or
// a stalled scheduler still recorded a valid prefix. The streaming System
// must record nothing.
func runFor(t *testing.T, f program.Factory, spec machine.Spec, horizon int) run {
	t.Helper()
	drive := func(record bool) (*machine.System, cost.Report) {
		t.Helper()
		sched, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		s, acc := machine.NewSystem(f), cost.NewAcc(f)
		s.Stream(acc, record)
		_, err = machine.Run(s, sched, horizon)
		var h machine.ErrHorizon
		var st machine.ErrStalled
		if err != nil && !errors.As(err, &h) && !errors.As(err, &st) {
			t.Fatalf("%s %s: %v", f.Name(), spec, err)
		}
		return s, acc.Report()
	}
	sys, recorded := drive(true)
	quiet, streamed := drive(false)
	if len(quiet.Trace()) != 0 || len(quiet.Changed()) != 0 {
		t.Fatalf("%s %s: a System streaming alone recorded %d steps", f.Name(), spec, len(quiet.Trace()))
	}
	return run{sys: sys, recorded: recorded, streamed: streamed}
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
