package runner_test

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/runner"
)

// mustFactory builds a registered algorithm's factory or fails the test.
func mustFactory(t testing.TB, algo string, n int) program.Factory {
	t.Helper()
	f, err := runner.NewFactory(algo, n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExecuteScheduleCanonical(t *testing.T) {
	r, _, _ := runner.ExecuteScheduleTraced(mustFactory(t, "yang-anderson", 4), runner.ScheduleJob{
		Algo: "yang-anderson", N: 4, Sched: machine.RoundRobinSpec(), KeepDecisions: 6,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.Canonical {
		t.Fatal("round-robin run should be canonical")
	}
	if r.Report.SC <= 0 || r.Report.Steps <= 0 {
		t.Fatalf("empty report: %+v", r.Report)
	}
	if len(r.Decisions) != 6 {
		t.Fatalf("recorded %d decisions, want 6", len(r.Decisions))
	}
	for i, p := range r.Decisions {
		if p < 0 || p >= 4 {
			t.Fatalf("decision %d names process %d", i, p)
		}
	}
}

func TestExecuteScheduleTruncatedIsNotCanonical(t *testing.T) {
	r, _, _ := runner.ExecuteScheduleTraced(mustFactory(t, "yang-anderson", 4), runner.ScheduleJob{
		Algo: "yang-anderson", N: 4, Sched: machine.RoundRobinSpec(), Horizon: 7,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Canonical {
		t.Fatal("a 7-step horizon cannot complete a canonical 4-process run")
	}
	if r.Report.Steps != 7 {
		t.Fatalf("truncated run measured %d steps, want 7", r.Report.Steps)
	}
}

func TestExecuteScheduleBadSpecErrors(t *testing.T) {
	if r, _, _ := runner.ExecuteScheduleTraced(mustFactory(t, "yang-anderson", 4), runner.ScheduleJob{Algo: "yang-anderson", N: 4, Sched: machine.Spec{Kind: "fifo"}}); r.Err == nil {
		t.Fatal("unknown scheduler spec accepted")
	}
	eng := runner.NewCached(runner.New(1), nil)
	err := eng.RunSchedules([]runner.ScheduleJob{{Algo: "no-such-algo", N: 4, Sched: machine.RoundRobinSpec()}}, func(r runner.ScheduleResult) error {
		if r.Err == nil {
			t.Error("unknown algorithm accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSchedulesFoldsInOrder(t *testing.T) {
	jobs := make([]runner.ScheduleJob, 9)
	for i := range jobs {
		jobs[i] = runner.ScheduleJob{Algo: "bakery", N: 3, Sched: machine.RandomSpec(int64(i))}
	}
	var order []int
	err := runner.NewCached(runner.New(4), nil).RunSchedules(jobs, func(r runner.ScheduleResult) error {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		order = append(order, r.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("fold order %v not submission order", order)
		}
	}
}

// TestStreamedScheduleResultMatchesRecorded: an uncaptured RunSchedules
// unit streams its candidate's steps into its cost and decisions and
// records none. Its result must be the one ExecuteScheduleTraced derives
// beside the recorded trace: the same Report, Canonical and Decisions,
// nil where that one is nil, for KeepDecisions of 0, 1, the run's length
// and beyond it, on a complete candidate, one the horizon cuts short and
// two whose schedulers stall, one of them before its first step.
func TestStreamedScheduleResultMatchesRecorded(t *testing.T) {
	const algo, n = "yang-anderson", 3
	f := mustFactory(t, algo, n)
	var jobs []runner.ScheduleJob
	for _, c := range []struct {
		j         runner.ScheduleJob
		canonical bool
	}{
		{runner.ScheduleJob{Algo: algo, N: n, Sched: machine.RoundRobinSpec()}, true},
		{runner.ScheduleJob{Algo: algo, N: n, Sched: machine.RandomSpec(5), Horizon: 9}, false},
		{runner.ScheduleJob{Algo: algo, N: n, Sched: machine.SoloSpec([]int{1})}, false},
		{runner.ScheduleJob{Algo: algo, N: n, Sched: machine.SoloSpec(nil)}, false}, // stalls before its first step
	} {
		r, exec, _ := runner.ExecuteScheduleTraced(f, c.j)
		if r.Err != nil || r.Canonical != c.canonical {
			t.Fatalf("%s: err %v, canonical %v after %d steps; want canonical %v", c.j.Sched, r.Err, r.Canonical, len(exec), c.canonical)
		}
		for _, keep := range []int{0, 1, len(exec), len(exec) + 5} {
			c.j.KeepDecisions = keep
			jobs = append(jobs, c.j)
		}
	}
	err := runner.NewCached(runner.New(2), nil).RunSchedules(jobs, func(got runner.ScheduleResult) error {
		j := got.Job
		want, exec, _ := runner.ExecuteScheduleTraced(f, j)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%s keep=%d: streamed err %v, recorded err %v", j.Sched, j.KeepDecisions, got.Err, want.Err)
		}
		if got.Report != want.Report || got.Canonical != want.Canonical || !reflect.DeepEqual(got.Decisions, want.Decisions) {
			t.Errorf("%s keep=%d: streamed %+v %v %v, recorded %+v %v %v", j.Sched, j.KeepDecisions,
				got.Report, got.Canonical, got.Decisions, want.Report, want.Canonical, want.Decisions)
		}
		if k := min(j.KeepDecisions, len(exec)); len(got.Decisions) != k || k == 0 && got.Decisions != nil {
			// No decision is a nil genome: it is stored as null, not [].
			t.Errorf("%s keep=%d: decisions %#v, want %d of them", j.Sched, j.KeepDecisions, got.Decisions, k)
		}
		for i, p := range got.Decisions {
			if p != exec[i].Proc {
				t.Errorf("%s keep=%d: decision %d is process %d, step %d was process %d's", j.Sched, j.KeepDecisions, i, p, i, exec[i].Proc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
