package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/store"
)

// gridAlgos and gridNs are the tournament grid that
// `tournament -quick -ns 4,8,16` searches.
var (
	gridAlgos = []string{"yang-anderson", "peterson", "bakery", "tas", "mcs"}
	gridNs    = []int{4, 8, 16}
)

// jsonTable is the `experiments -json` form of one table, so a table
// compares byte for byte with what the CLI prints.
type jsonTable struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	Pass   bool       `json:"pass"`
}

// reproduction is one op's output: every table's -json form and every grid
// cell's search result, plus the search counters the adversary layer
// reports.
type reproduction struct {
	tables [][]byte
	grid   [][]byte
	// candidates counts schedule evaluations (E13 and the grid);
	// gridEvaluated and gridDiscarded are the grid's Found counters.
	candidates, gridEvaluated, gridDiscarded int
}

// reproduce regenerates the quick-scale reproduction on eng: E1–E13 in
// order, then the tournament grid. A table that fails its shape check, or
// a search that scores below the best fixed policy, is an error.
func reproduce(eng *runner.CachedEngine, seed int64, tr *tracer) (*reproduction, error) {
	cfg := experiments.Config{Quick: true, Seed: seed, Engine: eng}
	rep := &reproduction{}
	for _, e := range experiments.All() {
		end := tr.begin("exp." + e.ID)
		tbl, err := e.Run(cfg)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		if !tbl.Pass {
			return nil, fmt.Errorf("%s failed its shape check", e.ID)
		}
		b, err := json.Marshal(jsonTable{
			ID: tbl.ID, Title: tbl.Title, Claim: tbl.Claim,
			Header: tbl.Header, Rows: tbl.Rows, Notes: tbl.Notes, Pass: tbl.Pass,
		})
		if err != nil {
			return nil, err
		}
		rep.tables = append(rep.tables, b)
		if e.ID == "E13" {
			n, err := evaluatedColumn(tbl.Header, tbl.Rows)
			if err != nil {
				return nil, err
			}
			rep.candidates += n
		}
	}
	search := adversary.Quick()
	search.Seed = seed
	for _, algo := range gridAlgos {
		for _, n := range gridNs {
			end := tr.begin("adversary.search")
			found, err := adversary.SearchWorst(eng, algo, n, search)
			end()
			if err != nil {
				return nil, err
			}
			fixed, ok := found.FixedBest()
			if !ok || found.Report.SC < fixed.Report.SC {
				return nil, fmt.Errorf("grid %s n=%d: search result below the best fixed policy", algo, n)
			}
			b, err := json.Marshal(found)
			if err != nil {
				return nil, err
			}
			rep.grid = append(rep.grid, b)
			rep.candidates += found.Evaluated
			rep.gridEvaluated += found.Evaluated
			rep.gridDiscarded += found.Discarded
		}
	}
	return rep, nil
}

// evaluatedColumn sums E13's "evaluated" column.
func evaluatedColumn(header []string, rows [][]string) (int, error) {
	col := -1
	for i, h := range header {
		if h == "evaluated" {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("E13 has no evaluated column")
	}
	total := 0
	for _, r := range rows {
		n, err := strconv.Atoi(r[col])
		if err != nil {
			return 0, fmt.Errorf("E13 evaluated %q: %w", r[col], err)
		}
		total += n
	}
	return total, nil
}

// same reports the first difference between two reproductions.
func (r *reproduction) same(ref *reproduction) error {
	if len(r.tables) != len(ref.tables) || len(r.grid) != len(ref.grid) {
		return fmt.Errorf("reproduction shape differs")
	}
	for i := range r.tables {
		if !bytes.Equal(r.tables[i], ref.tables[i]) {
			return fmt.Errorf("table %d differs from the set-up op", i+1)
		}
	}
	for i := range r.grid {
		if !bytes.Equal(r.grid[i], ref.grid[i]) {
			return fmt.Errorf("grid cell %d differs from the set-up op", i)
		}
	}
	return nil
}

// mounted is an open store stack: the engine experiments fan out on, its
// store, and the close that ends the op.
type mounted struct {
	eng   *runner.CachedEngine
	store *store.Store
	close func() error
}

// open mounts cfg through session.Open, the path every binary takes.
func open(cfg session.Config) (*mounted, error) {
	s, err := session.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &mounted{eng: s.Engine(), store: s.Store(), close: s.Close}, nil
}

// openTraced mounts what session.Open mounts for cfg — a local store
// directory, or a fleet of stored URLs with no near tier — from the same
// public constructors, with a recording wrapper around the mounted
// backend ("store.*" spans) and around each replica client ("remote.*"
// spans). Its close prints the same stats lines (to nowhere) and closes
// the same way Session.Close does, so a traced op sends the daemons
// exactly the requests an untraced one does.
func openTraced(cfg session.Config, tr *tracer) (*mounted, error) {
	var (
		be    store.Backend
		blobs store.BlobBackend
		cls   []*remote.Client
		ring  *store.Ring
	)
	switch {
	case cfg.StoreURL != "" && cfg.CacheDir == "":
		urls := strings.Split(cfg.StoreURL, ",")
		for _, u := range urls {
			cl, err := remote.NewClient(u, nil)
			if err != nil {
				return nil, err
			}
			sr, err := cl.Ping()
			if err != nil {
				return nil, fmt.Errorf("store %s unreachable: %w", u, err)
			}
			if sr.Protocol != remote.ProtocolVersion {
				return nil, fmt.Errorf("store %s speaks protocol %q", u, sr.Protocol)
			}
			cls = append(cls, cl)
		}
		replicas := make([]store.Backend, len(cls))
		for i, cl := range cls {
			r, err := cl.FetchRing()
			if err != nil {
				return nil, err
			}
			if r != nil {
				return nil, fmt.Errorf("store %s serves a ring; the benchmark mounts ring-less fleets only", cl.URL())
			}
			replicas[i] = recordFleet(cl, tr, "remote")
		}
		ring = store.FlagRing(urls...)
		rec := recordFleet(store.NewRingRouter(ring, replicas...), tr, "store")
		be, blobs = rec, rec
	case cfg.CacheDir != "" && cfg.StoreURL == "":
		local, err := store.OpenNDJSON(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		fb, err := store.OpenFileBlobs(cfg.CacheDir)
		if err != nil {
			local.Close()
			return nil, err
		}
		be = &recBackend{be: local, tr: tr, layer: "store"}
		blobs = &recBlobs{bb: fb, tr: tr, layer: "store"}
	default:
		return nil, fmt.Errorf("traced mounts take a cache directory or a store URL list, not both")
	}
	st := store.New(0, be)
	st.SetBlobs(blobs)
	cli := &remote.CLIStore{Store: st, Clients: cls, Ring: ring}
	eng := runner.NewCached(runner.New(cfg.Parallel), st).WithCapture(cfg.Capture)
	return &mounted{eng: eng, store: st, close: func() error {
		cli.PrintStats(io.Discard, cfg.Prog)
		return cli.Close()
	}}, nil
}
