package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
)

// benchNs are the process counts the simulator benchmarks sweep, mirroring
// the experiment grid's small/medium/large cells. Tracked in BENCH_sim.json
// via scripts/bench.sh.
var benchNs = []int{4, 16, 64}

// churnFactory builds an n-process algorithm whose processes never halt:
// each loops forever through try/enter/exit/rem, a write to its own flag, a
// read of its neighbour's flag, and a clearing write. Every step kind the
// simulator executes (crit, write, read) recurs every iteration, so stepping
// cost can be measured in steady state without re-creating systems
// mid-benchmark (a canonical run would halt and pollute ns/step with setup).
func churnFactory(tb testing.TB, n int) program.Factory {
	tb.Helper()
	layout := mutex.NewLayout()
	flags := make([]model.RegID, n)
	for i := range flags {
		flags[i] = layout.Reg(fmt.Sprintf("F[%d]", i), 0, i)
	}
	progs := make([]*program.Program, n)
	for i := 0; i < n; i++ {
		b := program.NewBuilder(fmt.Sprintf("churn/%d", i))
		x := b.Var("x")
		b.Label("loop")
		b.Try()
		b.Enter()
		b.Exit()
		b.Rem()
		b.Write(flags[i], program.Const(1))
		b.Read(flags[(i+1)%n], x)
		b.Write(flags[i], program.Const(0))
		b.Goto("loop")
		p, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
	return mutex.NewFactory("churn", layout, progs)
}

// spinFactory builds an n-process algorithm where process 0 cycles its
// critical section forever while everyone else spins on a register process 0
// never writes: from the second lap on, every spinner read is a free
// (non-state-changing) step — the SC model's hot case and the one the
// greedy adversary scores against.
func spinFactory(tb testing.TB, n int) program.Factory {
	tb.Helper()
	layout := mutex.NewLayout()
	gate := layout.Reg("gate", 0, -1)
	progs := make([]*program.Program, n)
	for i := 0; i < n; i++ {
		b := program.NewBuilder(fmt.Sprintf("spin/%d", i))
		if i == 0 {
			b.Label("loop")
			b.Try()
			b.Enter()
			b.Exit()
			b.Rem()
			b.Goto("loop")
		} else {
			x := b.Var("x")
			b.Try()
			b.Spin(gate, x, program.Ne(x, program.Const(0)))
			b.Enter()
			b.Exit()
			b.Rem()
			b.Halt()
		}
		p, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
	return mutex.NewFactory("spin", layout, progs)
}

// BenchmarkSystemStep is the simulator's innermost loop: one System.Step per
// iteration on a never-halting mixed workload (crit, write and read steps in
// a fixed rotation). ns/op is ns/step; allocs/op is the steady-state
// allocation cost of stepping, which the trace arenas and the Feed-delta
// state-change path are expected to hold at zero.
func BenchmarkSystemStep(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := machine.NewSystem(churnFactory(b, n))
			s.Reserve(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for t := 0; t < b.N; t++ {
				if _, err := s.Step(t % n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSystemStepSpin is the free-read variant: after a warm-up lap,
// every measured step is a spinning read that does not change the spinner's
// state — the single most-executed step shape in adversarial schedules.
func BenchmarkSystemStepSpin(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := machine.NewSystem(spinFactory(b, n))
			s.Reserve(b.N + n)
			for i := 1; i < n; i++ { // park every spinner on its read
				if _, err := s.Step(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for t := 0; t < b.N; t++ {
				if _, err := s.Step(1 + t%(n-1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyNext is one greedy-adversary decision and the step it
// chooses, as a run takes them: the cache catches up with the last step,
// the processes it could have moved are rescored (each candidate's charge
// read from a speculative feed of its automaton on the live System and
// scored against the pending readers of the register it changes), and the
// argmax runs over every live process. This is the per-decision cost of
// the tournament's most expensive fixed policy and of every search
// candidate's completion tail.
func BenchmarkGreedyNext(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := machine.NewSystem(spinFactory(b, n))
			s.Reserve(b.N + 8*n)
			g := machine.NewGreedyCost()
			for t := 0; t < 4*n; t++ { // warm up: arms spinners and the per-process cache
				i := g.Next(s)
				if i < 0 {
					b.Fatal("no live process")
				}
				if _, err := s.Step(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for t := 0; t < b.N; t++ {
				i := g.Next(s)
				if i < 0 {
					b.Fatal("no live process")
				}
				if _, err := s.Step(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCanonicalRun is the end-to-end unit the fleet executes billions
// of times: a full canonical run (every process completes one critical
// section) of the paper's O(n lg n) algorithm under round-robin, costed
// the way an executed unit nothing captures costs it: the System streams
// each step into a cost.Acc and records no step log.
func BenchmarkCanonicalRun(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f, err := mutex.YangAnderson(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for t := 0; t < b.N; t++ {
				s := machine.NewSystem(f)
				s.Stream(cost.NewAcc(f), false)
				if _, err := machine.Run(s, machine.NewRoundRobin(), machine.DefaultHorizon(n)); err != nil {
					b.Fatal(err)
				}
				if err := s.CheckCanonical(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
