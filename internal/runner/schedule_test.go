package runner_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/runner"
)

func TestExecuteScheduleCanonical(t *testing.T) {
	r, _, _ := runner.ExecuteScheduleTraced(runner.ScheduleJob{
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
	r, _, _ := runner.ExecuteScheduleTraced(runner.ScheduleJob{
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
	if r, _, _ := runner.ExecuteScheduleTraced(runner.ScheduleJob{Algo: "yang-anderson", N: 4, Sched: machine.Spec{Kind: "fifo"}}); r.Err == nil {
		t.Fatal("unknown scheduler spec accepted")
	}
	if r, _, _ := runner.ExecuteScheduleTraced(runner.ScheduleJob{Algo: "no-such-algo", N: 4, Sched: machine.RoundRobinSpec()}); r.Err == nil {
		t.Fatal("unknown algorithm accepted")
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
