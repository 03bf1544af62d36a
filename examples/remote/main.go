// Remote: the fleet-shared result store end to end, in one process. Two
// stored-style servers (the same handler cmd/stored mounts) serve two
// authoritative store instances on loopback; independent "worker
// processes" — separate clients with their own local LRU tiers — run the
// same batch of simulations against them through a hash-routing fleet
// tier (what `-store URL1,URL2` mounts). The first worker pays for every
// simulation and uploads the results in batched mputs; the second worker
// executes nothing: its whole batch is served by one gzipped mget per
// replica, misses=0. Each instance holds a disjoint slice of the key
// space, so the fleet cache scales by adding instances.
//
// The multi-process version of this walkthrough (real stored binaries,
// sharded cmd/experiments runs) is in examples/remote/README.md.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"repro/internal/machine"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/store"
)

// serveStored starts one stored-style instance on loopback, returning its
// URL and the authoritative store behind it.
func serveStored() (string, *store.Store) {
	authoritative := store.NewMemory(0) // cmd/stored uses an NDJSON dir; memory keeps the example self-contained
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, remote.NewServer(authoritative))
	return "http://" + ln.Addr().String(), authoritative
}

func main() {
	// --- the fleet tier: what `stored -dir DIR` runs, twice ---------------
	url1, auth1 := serveStored()
	url2, auth2 := serveStored()
	urls := []string{url1, url2}
	fmt.Printf("stored fleet serving on %s\n\n", strings.Join(urls, " and "))

	// --- the workload: a grid of canonical simulations ------------------
	var jobs []runner.Job
	for _, algo := range []string{"yang-anderson", "bakery", "peterson"} {
		for _, n := range []int{4, 6, 8} {
			jobs = append(jobs, runner.Job{Algo: algo, N: n, Sched: machine.RoundRobinSpec()})
		}
	}

	// --- two workers, two processes' worth of state ---------------------
	for worker := 1; worker <= 2; worker++ {
		// remote.MountFleet with a comma-separated list builds the Router over
		// one pinged client per instance — the CLIs' `-store URL1,URL2`.
		st, cls, _, err := remote.MountFleet("", strings.Join(urls, ","))
		if err != nil {
			log.Fatal(err)
		}
		eng := runner.NewCached(runner.New(4), st)
		total := 0
		if err := eng.Run(jobs, func(r runner.Result) error {
			if r.Err != nil {
				return r.Err
			}
			total += r.Report.SC
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("worker %d: total SC over %d jobs = %d\n", worker, len(jobs), total)
		fmt.Printf("worker %d: cache %s\n", worker, st.Stats())
		for i, cl := range cls {
			cs := cl.Stats()
			fmt.Printf("worker %d: replica %d gets=%d puts=%d\n", worker, i, cs.Gets, cs.Puts)
		}
		fmt.Println()
		st.Close()
	}

	fmt.Printf("fleet: %d + %d entries — disjoint slices of one key space\n", auth1.Len(), auth2.Len())
	fmt.Println("worker 2 reported misses=0: the routed fleet store made its run free.")
}
