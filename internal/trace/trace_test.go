package trace_test

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/trace"
)

// canonical runs name/n under round-robin and returns the steps and
// changed flags its System recorded.
func canonical(t *testing.T, name string, n int) (*mutex.Factory, model.Execution, []bool) {
	t.Helper()
	f, err := mutex.New(name, n)
	if err != nil {
		t.Fatal(err)
	}
	s := machine.NewSystem(f)
	if _, err := machine.Run(s, machine.NewRoundRobin(), machine.DefaultHorizon(n)); err != nil {
		t.Fatal(err)
	}
	return f, s.Trace(), s.Changed()
}

func TestTimelineRenders(t *testing.T) {
	f, exec, changed := canonical(t, mutex.NameYangAnderson, 3)
	out := trace.Timeline(f.N(), exec, changed, trace.Options{ShowFree: true})
	for _, want := range []string{"try_0", "enter_0", "rem_2", "writes", "reads"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	// Spinning under round-robin must produce at least one free read.
	if !strings.Contains(out, "(free)") {
		t.Error("no free (uncharged) reads rendered; expected spinning under round-robin")
	}
	if lines := strings.Count(out, "\n"); lines != len(exec)+1 {
		t.Errorf("timeline has %d lines, want %d steps + header", lines, len(exec))
	}
}

func TestTimelineMaxSteps(t *testing.T) {
	f, exec, changed := canonical(t, mutex.NameBakery, 3)
	out := trace.Timeline(f.N(), exec, changed, trace.Options{MaxSteps: 5})
	if !strings.Contains(out, "more steps") {
		t.Error("truncation marker missing")
	}
}

func TestTimelineRegisterNames(t *testing.T) {
	f, exec, changed := canonical(t, mutex.NameYangAnderson, 2)
	lay := f.Layout()
	out := trace.Timeline(f.N(), exec, changed, trace.Options{
		RegisterName: func(r model.RegID) string { return lay.Name(r) },
	})
	if !strings.Contains(out, "C[1][0]") {
		t.Errorf("register names not applied:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	f, exec, changed := canonical(t, mutex.NameYangAnderson, 3)
	out := trace.Summary(f.N(), exec, changed)
	if !strings.Contains(out, "p0") || !strings.Contains(out, "CS-interval") {
		t.Errorf("summary malformed:\n%s", out)
	}
	// Every process entered and exited: no [-1, -1] rows.
	if strings.Contains(out, "[-1") {
		t.Errorf("summary shows missing CS interval:\n%s", out)
	}
}
