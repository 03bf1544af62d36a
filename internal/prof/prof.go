// Package prof registers the standard pprof profile flags on a CLI's flag
// set and manages the profile lifecycle around its run. Both drivers
// (cmd/experiments, cmd/tournament) mount it, so any regression the
// benchmarks surface can be chased straight to source lines on the same
// workload that showed it:
//
//	experiments -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// -trace captures a runtime execution trace (scheduling, GC, blocking)
// over the same run, for `go tool trace`. The profile → observe workflow:
// profile a workload here to find *where* time goes, then replay the
// simulation itself with `observe KEY` to see *what* the simulated
// execution did — the two views share the workload via the result store's
// keys.
package prof

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the profile destinations a CLI registered.
type Flags struct {
	cpu, mem, trace *string
}

// Register adds -cpuprofile, -memprofile and -trace to fs. Parse fs before
// Start.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:   fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)"),
		mem:   fs.String("memprofile", "", "write a heap allocation profile to this file at exit"),
		trace: fs.String("trace", "", "write a runtime execution trace of the run to this file (inspect with go tool trace)"),
	}
}

// Start begins CPU profiling and runtime tracing when their flags were
// given and returns a stop function to defer around the measured work;
// stop finishes both and snapshots the heap to -memprofile. Profiling
// failures are reported on errw (the CLI's diagnostic stream, so the data
// stream stays clean) rather than aborting the run a profile was merely
// observing.
func (f *Flags) Start(errw io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	var traceFile *os.File
	if *f.trace != "" {
		traceFile, err = os.Create(*f.trace)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	memPath := *f.mem
	return func() {
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil {
				fmt.Fprintln(errw, "prof: trace:", err)
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(errw, "prof: cpuprofile:", err)
			}
		}
		if memPath == "" {
			return
		}
		mf, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(errw, "prof: memprofile:", err)
			return
		}
		runtime.GC() // settle the live set so the snapshot shows retained memory
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintln(errw, "prof: memprofile:", err)
		}
		if err := mf.Close(); err != nil {
			fmt.Fprintln(errw, "prof: memprofile:", err)
		}
	}, nil
}
