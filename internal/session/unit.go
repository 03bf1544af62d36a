package session

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/perm"
	"repro/internal/runner"
)

// Unit is the wire form of one experiment request — the coordinates that
// fully determine a canonical simulation: algorithm, process count,
// scheduler name, seed, step budget. It is the request body cmd/experimentd
// accepts and the shape `mutexsim -json` serializes, so one unit means the
// same execution whether it arrives as flags or as JSON. An empty Sched
// means "round-robin"; Seed only parameterizes the "random" scheduler.
type Unit struct {
	Algo    string `json:"algo"`
	N       int    `json:"n"`
	Sched   string `json:"sched"`
	Seed    int64  `json:"seed"`
	Horizon int    `json:"horizon,omitempty"`
}

// Job resolves the unit into the runner's executable value. The scheduler
// name goes through machine.NamedSpec — the one name→spec mapping — and the
// seed is folded into the spec (not the Job's provenance field), so two
// units that construct behaviourally identical schedulers share one cache
// key and coalesce.
func (u Unit) Job() (runner.Job, error) {
	if u.N < 2 {
		return runner.Job{}, fmt.Errorf("n must be at least 2 (got %d)", u.N)
	}
	if u.Horizon < 0 {
		return runner.Job{}, fmt.Errorf("horizon must be non-negative (got %d)", u.Horizon)
	}
	sched := u.Sched
	if sched == "" {
		sched = "round-robin"
	}
	sp, err := machine.NamedSpec(sched, u.N, u.Seed)
	if err != nil {
		return runner.Job{}, err
	}
	return runner.Job{Algo: u.Algo, N: u.N, Sched: sp, Horizon: u.Horizon}, nil
}

// UnitResult is the canonical machine-readable answer for one unit: the
// unit echoed back (scheduler name normalized), the unit's content address
// in the result store — the key its captured trace lives under, feedable
// straight to cmd/observe — and the cost report under every model.
// Serialized with encoding/json it is byte-identical between `mutexsim
// -json` and an experimentd response by construction: both marshal this
// struct.
type UnitResult struct {
	Unit
	Key        string      `json:"key"`
	Report     cost.Report `json:"report"`
	SCPerNLogN float64     `json:"scPerNLogN"`
}

// RunUnit resolves and executes one unit through RunJob — cached,
// coalesced, safe for concurrent request-scoped use.
func (s *Session) RunUnit(u Unit) (UnitResult, error) {
	j, err := u.Job()
	if err != nil {
		return UnitResult{}, err
	}
	rep, err := s.RunJob(j)
	if err != nil {
		return UnitResult{}, err
	}
	res := UnitResult{Unit: u, Key: j.CacheKey(), Report: rep}
	res.Sched = j.Sched.Kind
	if d := perm.NLogN(u.N); d > 0 {
		res.SCPerNLogN = float64(rep.SC) / d
	}
	return res, nil
}
