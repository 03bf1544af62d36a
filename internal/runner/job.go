package runner

import (
	"strconv"
	"sync"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
	_ "repro/internal/rmw" // registers the RMW locks with internal/mutex
)

// Job is a pure, seed-addressed unit of simulator work: one canonical
// execution of a named algorithm under a scheduler spec. Everything a Job
// needs is carried by value — factory name, n, scheduler spec, seed,
// horizon — so ExecuteTracedOn can build all mutable state (system,
// scheduler) fresh inside the worker and two workers share nothing
// writable; the factory they may share is immutable.
type Job struct {
	// Algo is a registered algorithm name ("yang-anderson", "bakery",
	// "mcs", …).
	Algo string
	// N is the number of processes.
	N int
	// Sched describes the scheduler; a fresh instance is built per job.
	Sched machine.Spec
	// Horizon is the step budget; 0 means machine.DefaultHorizon(N).
	Horizon int
	// Seed is recorded for provenance. Callers fold it into Sched.Seed (or
	// derive it with MixSeed) when the job's behaviour should depend on it.
	Seed int64
}

// Result carries one job's outputs back for ordered aggregation: the
// execution's cost report under every model, and any error. Err is
// carried in-band (rather than aborting the pool) so a fold can decide
// whether an individual failure sinks the whole batch. The execution
// trace itself is not retained — a batch of Results must stay small
// however long the traces were; folds that need traces should run the
// trace-consuming work inside the job.
type Result struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Job echoes the executed job.
	Job Job
	// Report is the execution's cost under the SC, CC and DSM models.
	Report cost.Report
	// Err is the first error encountered running the job, if any.
	Err error
}

// NewFactory builds the factory of a registered algorithm at n processes:
// the register-only algorithms of internal/mutex and the RMW locks
// internal/rmw registers beside them. A factory is immutable once built
// (programs and layouts are shared read-only), so one instance may serve
// any number of units on any worker. CachedEngine's Run and RunSchedules
// build each (algo, n) at most once per fan-out and drop it once no unit
// of the fan-out still needs it; nothing keeps a factory longer, so a
// long-lived process holds only what its executing units use.
func NewFactory(name string, n int) (program.Factory, error) {
	f, err := mutex.New(name, n)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// FactoryName returns the Name of the factory NewFactory(name, n) builds,
// without building it: every registered algorithm names its factory
// "name(n=N)". Store keys that carry a factory's name use it, so a fan-out
// served from the store need not build the factory to address its units.
func FactoryName(name string, n int) string {
	return name + "(n=" + strconv.Itoa(n) + ")"
}

// LazyFactory returns a function that builds the factory of a registered
// algorithm at n processes on its first call, once, and returns that
// factory, or the build error, on every call from any goroutine. A fan-out
// that resolves its factory through it from its executed units builds it
// at most once, and not at all when the store serves every unit.
func LazyFactory(name string, n int) func() (program.Factory, error) {
	return sync.OnceValues(func() (program.Factory, error) { return NewFactory(name, n) })
}

// cell names one factory: a registered algorithm at a process count.
type cell struct {
	algo string
	n    int
}

// cell returns the factory the job runs on.
func (j Job) cell() cell { return cell{j.Algo, j.N} }

// factories resolves the factories of one Run or RunSchedules fan-out over
// jobs. The first executed unit naming a cell builds its factory, and
// every later executed unit naming it shares that instance; a build error
// reaches each of them in-band. Units the store serves build nothing, and
// until one unit executes the resolver holds no state beyond its jobs.
// Each unit is counted off its cell when it takes the factory or is
// skipped, and the resolver drops the cell with its last unit, so an
// executing unit's own reference is all that keeps a factory alive from
// then on. A unit skipped before the first execution is not counted off:
// its cell stays resolvable until the fan-out ends.
type factories[J interface{ cell() cell }] struct {
	jobs []J
	mu   sync.Mutex
	//repro:guardedby mu
	cells map[cell]*resolved // nil until the first unit executes
}

// resolved is one cell's factory, built at most once, and the number of
// the fan-out's units naming the cell not yet counted off.
type resolved struct {
	once sync.Once
	f    program.Factory
	err  error
	left int
}

// take returns unit i's factory, building it if no unit has, and counts
// the unit off.
func (fs *factories[J]) take(i int) (program.Factory, error) {
	c := fs.jobs[i].cell()
	fs.mu.Lock()
	if fs.cells == nil {
		fs.cells = make(map[cell]*resolved)
		for _, j := range fs.jobs {
			if fs.cells[j.cell()] == nil {
				fs.cells[j.cell()] = new(resolved)
			}
			fs.cells[j.cell()].left++
		}
	}
	r := fs.cells[c]
	fs.countOff(c)
	fs.mu.Unlock()
	r.once.Do(func() { r.f, r.err = NewFactory(c.algo, c.n) })
	return r.f, r.err
}

// skipped counts off unit i, which the fan-out settled without executing.
func (fs *factories[J]) skipped(i int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cells != nil {
		fs.countOff(fs.jobs[i].cell())
	}
}

// countOff counts one unit off cell c and drops the cell after its last.
//
//repro:locked mu
func (fs *factories[J]) countOff(c cell) {
	if r := fs.cells[c]; r != nil {
		if r.left--; r.left == 0 {
			delete(fs.cells, c)
		}
	}
}

// run drives f under a fresh scheduler built from spec on a fresh System
// for at most horizon steps (0 means machine.DefaultHorizon(f.N())). The
// System streams each step to sink as it executes it, and records its
// trace only when record is set. The System is nil when the spec did not
// resolve; otherwise the error is machine.Run's.
func run(f program.Factory, spec machine.Spec, horizon int, sink machine.Sink, record bool) (*machine.System, error) {
	sched, err := spec.New()
	if err != nil {
		return nil, err
	}
	if horizon <= 0 {
		horizon = machine.DefaultHorizon(f.N())
	}
	s := machine.NewSystem(f)
	s.Stream(sink, record)
	_, err = machine.Run(s, sched, horizon)
	return s, err
}

// ExecuteTracedOn runs one job on its resolved factory f: build the
// scheduler from its spec, drive a canonical execution, and cost it
// through a cost.Acc as the System executes it. It never shares mutable
// state with other invocations; f is only read. Errors are returned
// unwrapped — the Result already carries the job's coordinates, and folds
// add their own context. Beside the Result it returns the raw material
// trace capture persists: the execution's step log and the machine's
// per-step changed flags. On error the trace and flags are nil: a failed
// job has no execution worth replaying.
func ExecuteTracedOn(f program.Factory, j Job) (Result, model.Execution, []bool) {
	return executeOn(f, j, true)
}

// executeOn is ExecuteTracedOn that records the step log only when record
// is set: an executed unit nothing captures costs its steps as they
// execute and keeps none of them, and its trace and flags are nil.
func executeOn(f program.Factory, j Job, record bool) (Result, model.Execution, []bool) {
	res := Result{Job: j}
	acc := cost.NewAcc(f)
	s, err := run(f, j.Sched, j.Horizon, acc, record)
	if err == nil {
		err = s.CheckCanonical()
	}
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	res.Report = acc.Report()
	return res, s.Trace(), s.Changed()
}

// ExecuteTraced is ExecuteTracedOn for a caller that holds no factory: it
// builds the job's own, and an unknown algorithm is the Result's Err. It
// suits one-off units; a fan-out resolves each factory once through
// CachedEngine.Run instead.
func ExecuteTraced(j Job) (Result, model.Execution, []bool) {
	f, err := NewFactory(j.Algo, j.N)
	if err != nil {
		return Result{Job: j, Err: err}, nil, nil
	}
	return ExecuteTracedOn(f, j)
}
