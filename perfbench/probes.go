package main

import (
	"fmt"
	"time"

	"repro/internal/construct"
	"repro/internal/decode"
	"repro/internal/encode"
	"repro/internal/perm"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/trace"
)

// proofSizes are the (algorithm, n) cells E1 sweeps at quick scale.
var proofSizes = []struct {
	algo string
	n    int
}{
	{"yang-anderson", 2}, {"yang-anderson", 3}, {"yang-anderson", 4}, {"yang-anderson", 5},
	{"peterson", 4}, {"yang-anderson", 8}, {"yang-anderson", 12},
}

// proofPerms is how many seeded permutations the proof probe runs per
// cell.
const proofPerms = 3

// probeUnits caps the units the machine, trace and key probes time.
const probeUnits = 300

// probes times single calls into the layers a workload's spans cannot
// split: the proof pipeline stages on a seeded permutation sample of E1's
// sizes, and the machine, trace codec and key hashing on serve-sequence
// units (units, or the seed's own cold tail when nil).
func probes(b *bench, v map[string]float64, units []session.Unit) error {
	var calls int
	var tConstruct, tEncode, tDecode time.Duration
	for _, c := range proofSizes {
		f, err := runner.NewFactory(c.algo, c.n)
		if err != nil {
			return err
		}
		for _, pi := range perm.Sample(c.n, proofPerms, b.seed+int64(c.n)) {
			t0 := time.Now()
			res, err := construct.Construct(f, pi)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("probe construct %s n=%d: %w", c.algo, c.n, err)
			}
			enc, err := encode.Encode(res.Set)
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("probe encode %s n=%d: %w", c.algo, c.n, err)
			}
			if _, err := decode.Decode(f, enc.Bits, enc.BitLen); err != nil {
				return fmt.Errorf("probe decode %s n=%d: %w", c.algo, c.n, err)
			}
			t3 := time.Now()
			tConstruct += t1.Sub(t0)
			tEncode += t2.Sub(t1)
			tDecode += t3.Sub(t2)
			calls++
		}
	}
	v["proof.construct_ms"] = ratio(float64(tConstruct)/1e6, float64(calls))
	v["proof.encode_ms"] = ratio(float64(tEncode)/1e6, float64(calls))
	v["proof.decode_ms"] = ratio(float64(tDecode)/1e6, float64(calls))

	if units == nil {
		for _, r := range serveSequence(b.seed, 0, 5*probeUnits) {
			if r.hot < 0 {
				units = append(units, r.unit)
			}
		}
	}
	if len(units) > probeUnits {
		units = units[:probeUnits]
	}
	m, err := machineProbe(units)
	if err != nil {
		return err
	}
	v["machine.unit_ms"] = m.unitMs
	v["machine.steps_per_s"] = m.stepsPerS
	v["trace.encode_us"] = m.encodeUs
	v["store.key_us"] = m.keyUs
	return nil
}

// machineStats is what machineProbe measures: mean unit time, step rate,
// mean trace encode time and mean key hashing time.
type machineStats struct {
	unitMs, stepsPerS, encodeUs, keyUs float64
}

// machineProbe hashes, executes and encodes the trace of every unit.
func machineProbe(units []session.Unit) (machineStats, error) {
	var ms machineStats
	var tExec, tEnc, tKey time.Duration
	steps := 0
	for _, u := range units {
		j, err := u.Job()
		if err != nil {
			return ms, err
		}
		t0 := time.Now()
		_ = j.CacheKey()
		t1 := time.Now()
		r, exec, changed := runner.ExecuteTraced(j)
		t2 := time.Now()
		if r.Err != nil {
			return ms, fmt.Errorf("probe %s n=%d: %w", u.Algo, u.N, r.Err)
		}
		if _, err := trace.EncodeRecord(trace.Record{Algo: j.Algo, N: j.N, Horizon: j.Horizon, Exec: exec, Changed: changed}); err != nil {
			return ms, fmt.Errorf("probe encode %s n=%d: %w", u.Algo, u.N, err)
		}
		t3 := time.Now()
		tKey += t1.Sub(t0)
		tExec += t2.Sub(t1)
		tEnc += t3.Sub(t2)
		steps += r.Report.Steps
	}
	n := float64(len(units))
	ms.unitMs = ratio(float64(tExec)/1e6, n)
	ms.stepsPerS = ratio(float64(steps), tExec.Seconds())
	ms.encodeUs = ratio(float64(tEnc)/1e3, n)
	ms.keyUs = ratio(float64(tKey)/1e3, n)
	return ms, nil
}
