package remote_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/store"
)

// newMember starts a stored service that knows its own ring name, and
// returns the usual handles.
func newMember(t *testing.T, name string) (*httptest.Server, *remote.Server, *store.Store) {
	t.Helper()
	ts, srv, st := newServer(t)
	srv.SetSelf(name)
	return ts, srv, st
}

// ringOf builds an epoch-stamped ring over live test servers, named in
// order.
func ringOf(t *testing.T, epoch uint64, names []string, urls []string) *store.Ring {
	t.Helper()
	members := make([]store.Member, len(names))
	for i := range names {
		members[i] = store.Member{Name: names[i], URL: urls[i]}
	}
	ring, err := store.NewRing(epoch, members...)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// TestRingInstallFetchEpoch pins the placement-metadata protocol: a ring
// posted to one member is served back byte-equivalent, every subsequent
// reply echoes the installed epoch (and the client tracks the newest one
// seen), an older epoch is refused, and a conflicting membership at the
// installed epoch is refused — two rings at one epoch would split the
// fleet's placement brain.
func TestRingInstallFetchEpoch(t *testing.T) {
	ts, srv, _ := newMember(t, "a")
	c := newClient(t, ts.URL)

	// No ring installed: fetch reports "none" without error.
	if r, err := c.FetchRing(); r != nil || err != nil {
		t.Fatalf("fresh server served ring %v, err %v; want none", r, err)
	}

	ring := ringOf(t, 3, []string{"a", "b"}, []string{ts.URL, "http://b.invalid"})
	if err := c.InstallRing(ring); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchRing()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.String() != ring.String() {
		t.Fatalf("fetched %s, want %s", got, ring)
	}
	if e := c.SeenEpoch(); e != 3 {
		t.Fatalf("client saw epoch %d on replies, want 3", e)
	}
	if sr, err := c.Ping(); err != nil || sr.Epoch != 3 {
		t.Fatalf("stats epoch %d (err %v), want 3", sr.Epoch, err)
	}

	// An older epoch must not roll the fleet's placement back.
	old := ringOf(t, 2, []string{"a"}, []string{ts.URL})
	if err := c.InstallRing(old); err == nil {
		t.Fatal("server accepted an epoch rollback")
	}
	// Same epoch, same membership: an idempotent re-install (Rebalance
	// re-runs do this); same epoch, different membership: refused.
	if err := c.InstallRing(ring); err != nil {
		t.Fatalf("idempotent re-install refused: %v", err)
	}
	conflicting := ringOf(t, 3, []string{"a", "z"}, []string{ts.URL, "http://z.invalid"})
	if err := c.InstallRing(conflicting); err == nil {
		t.Fatal("server accepted a conflicting ring at the installed epoch")
	}
	if srv.Ring().String() != ring.String() {
		t.Fatalf("installed ring drifted to %s", srv.Ring())
	}
}

// TestFleetScaleOutRebalance is the acceptance path end to end: warm a
// routed 2-replica fleet, add a third replica, rebalance onto the epoch-2
// ring, and replay — every key must be served from exactly its new owner
// with zero misses and zero re-executions' worth of writes. Also pins that
// a mount naming only ONE member discovers and dials the whole fleet from
// the installed ring, and that rebalancing is idempotent.
func TestFleetScaleOutRebalance(t *testing.T) {
	tsA, _, authA := newMember(t, "a")
	tsB, _, authB := newMember(t, "b")

	ring1 := ringOf(t, 1, []string{"a", "b"}, []string{tsA.URL, tsB.URL})
	for _, u := range []string{tsA.URL, tsB.URL} {
		if err := newClient(t, u).InstallRing(ring1); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the 2-replica fleet, mounting it by naming a single member.
	st, cls, mounted, err := remote.MountFleet("", tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	if mounted == nil || mounted.Epoch != 1 || len(cls) != 2 {
		t.Fatalf("single-URL mount found ring %v with %d clients, want epoch 1 and 2 members", mounted, len(cls))
	}
	const n = 60
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("scale", i)
		st.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	if authA.Len()+authB.Len() != n {
		t.Fatalf("fleet holds %d+%d keys, want %d", authA.Len(), authB.Len(), n)
	}
	st.Close()

	// Scale out: start c, install the epoch-2 ring everywhere, drain each.
	tsC, _, authC := newMember(t, "c")
	ring2 := ringOf(t, 2, []string{"a", "b", "c"}, []string{tsA.URL, tsB.URL, tsC.URL})
	var diag strings.Builder
	if err := remote.Rebalance(ring2, &diag); err != nil {
		t.Fatal(err)
	}
	if authC.Len() == 0 {
		t.Fatal("no keys moved to the new replica")
	}
	if total := authA.Len() + authB.Len() + authC.Len(); total != n {
		t.Fatalf("fleet holds %d keys after rebalance, want %d (nothing lost, nothing doubled)", total, n)
	}
	for i, k := range keys {
		owner := ring2.Owner(k)
		if !([]*store.Store{authA, authB, authC})[owner].Has(k) {
			t.Fatalf("key %d not on its epoch-2 owner %s", i, ring2.Members[owner].Name)
		}
	}

	// Replay through a fresh mount (again naming one member): epoch 2 is
	// discovered, all three replicas are dialed, and the whole warm set is
	// served without a single miss or write.
	fresh, cls3, m2, err := remote.MountFleet("", tsB.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if m2 == nil || m2.Epoch != 2 || len(cls3) != 3 {
		t.Fatalf("post-rebalance mount found ring %v with %d clients, want epoch 2 and 3 members", m2, len(cls3))
	}
	fresh.Prefetch(keys)
	for i, k := range keys {
		if v, ok := fresh.Get(k); !ok || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("key %d after scale-out: %q ok=%v", i, v, ok)
		}
	}
	if s := fresh.Stats(); s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("replay saw misses=%d puts=%d, want a fully warm fleet", s.Misses, s.Puts)
	}

	// Idempotent: a second rebalance onto the same ring moves nothing.
	if err := remote.Rebalance(ring2, nil); err != nil {
		t.Fatal(err)
	}
	if total := authA.Len() + authB.Len() + authC.Len(); total != n {
		t.Fatalf("settled fleet re-rebalanced to %d keys, want %d", total, n)
	}
}

// TestMidMigrationReads pins the property the whole design leans on: after
// the new ring is installed but BEFORE any key has moved, a client routed
// by the new placement still reads every key — a moved key's runner-up
// under rendezvous growth is exactly its previous owner, so failover reads
// bridge the migration window with zero misses.
func TestMidMigrationReads(t *testing.T) {
	tsA, _, _ := newMember(t, "a")
	tsB, _, _ := newMember(t, "b")

	ring1 := ringOf(t, 1, []string{"a", "b"}, []string{tsA.URL, tsB.URL})
	for _, u := range []string{tsA.URL, tsB.URL} {
		if err := newClient(t, u).InstallRing(ring1); err != nil {
			t.Fatal(err)
		}
	}
	st, _, _, err := remote.MountFleet("", tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("mid", i)
		st.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	st.Close()

	// Install epoch 2 on all three members and drain NOTHING: every key
	// still sits where epoch 1 put it.
	tsC, _, authC := newMember(t, "c")
	ring2 := ringOf(t, 2, []string{"a", "b", "c"}, []string{tsA.URL, tsB.URL, tsC.URL})
	for _, u := range []string{tsA.URL, tsB.URL, tsC.URL} {
		if err := newClient(t, u).InstallRing(ring2); err != nil {
			t.Fatal(err)
		}
	}
	if authC.Len() != 0 {
		t.Fatal("test premise broken: keys on c before any drain")
	}

	mid, _, m2, err := remote.MountFleet("", tsC.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	if m2 == nil || m2.Epoch != 2 {
		t.Fatalf("mid-migration mount found ring %v, want epoch 2", m2)
	}
	// Both read paths must bridge: batched (prefetch regroups unresolved
	// keys by runner-up) and point (per-key rank walk).
	present := mid.Prefetch(keys)
	if len(present) != n {
		t.Fatalf("mid-migration prefetch marked %d of %d present", len(present), n)
	}
	for i, k := range keys {
		if v, ok := mid.Get(k); !ok || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("key %d mid-migration: %q ok=%v", i, v, ok)
		}
	}
	if s := mid.Stats(); s.Misses != 0 {
		t.Fatalf("mid-migration replay saw %d misses, want 0 — failover reads must cover unmoved keys", s.Misses)
	}
}

// TestMergeRoutesToOwners pins the router-aware -merge: folding a local
// directory into a fleet mount pushes each entry straight to its owning
// replica in full per-replica batches — one mput per member for a
// sub-chunk merge, zero point puts, and every key lands on exactly its
// owner.
func TestMergeRoutesToOwners(t *testing.T) {
	tsA, srvA, authA := newMember(t, "a")
	tsB, srvB, authB := newMember(t, "b")
	ring := ringOf(t, 1, []string{"a", "b"}, []string{tsA.URL, tsB.URL})
	for _, u := range []string{tsA.URL, tsB.URL} {
		if err := newClient(t, u).InstallRing(ring); err != nil {
			t.Fatal(err)
		}
	}

	// A local shard directory with keys owned by both members.
	dir := t.TempDir()
	local, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("merge", i)
		local.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}

	st, _, _, err := remote.MountFleet("", tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	added, err := st.Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	if added != n {
		t.Fatalf("merge added %d entries, want %d", added, n)
	}
	if authA.Len() == 0 || authB.Len() == 0 || authA.Len()+authB.Len() != n {
		t.Fatalf("merge placed %d+%d keys, want a disjoint split of %d", authA.Len(), authB.Len(), n)
	}
	for i, k := range keys {
		if !([]*store.Store{authA, authB})[ring.Owner(k)].Has(k) {
			t.Fatalf("merged key %d not on its owner", i)
		}
	}
	for _, srv := range []*remote.Server{srvA, srvB} {
		if r := srv.Requests(); r.Put != 0 || r.MPut != 1 {
			t.Fatalf("merge traffic put=%d mput=%d on a replica, want one full batch and no point puts", r.Put, r.MPut)
		}
	}
}

// TestMountRingDiscoveryEdges pins the mount's placement-discovery
// contract: a flag URL outside the installed ring is refused (writing
// through a non-member would split placement), and discovery is
// best-effort — a replica that 500s /v1/ring contributes no opinion
// instead of failing the mount.
func TestMountRingDiscoveryEdges(t *testing.T) {
	tsA, _, _ := newMember(t, "a")
	tsB, _, _ := newMember(t, "b")
	ring := ringOf(t, 1, []string{"a", "b"}, []string{tsA.URL, tsB.URL})
	if err := newClient(t, tsA.URL).InstallRing(ring); err != nil {
		t.Fatal(err)
	}
	if err := newClient(t, tsB.URL).InstallRing(ring); err != nil {
		t.Fatal(err)
	}

	// A stranger (live, protocol-speaking, but not a ring member) in the
	// flag list is refused by name.
	tsX, _, _ := newServer(t)
	if _, _, _, err := remote.MountFleet("", tsA.URL+","+tsX.URL); err == nil {
		t.Fatal("mount accepted a flag URL outside the fleet's ring")
	}

	// A half-alive replica (stats answers, everything else 500s) must not
	// fail discovery: the healthy member's ring wins and the mount proceeds,
	// degrading the sick member's keys to misses later instead of refusing
	// to start.
	tsSick, _, _ := newMember(t, "b")
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			tsSick.Config.Handler.ServeHTTP(w, r)
			return
		}
		http.Error(w, "sick replica", http.StatusInternalServerError)
	}))
	defer sick.Close()
	tsA2, _, _ := newMember(t, "a")
	ring2 := ringOf(t, 1, []string{"a", "b"}, []string{tsA2.URL, sick.URL})
	if err := newClient(t, tsA2.URL).InstallRing(ring2); err != nil {
		t.Fatal(err)
	}
	st, cls, m, err := remote.MountFleet("", tsA2.URL+","+sick.URL)
	if err != nil {
		t.Fatalf("half-alive replica failed the mount: %v", err)
	}
	defer st.Close()
	if m == nil || m.Epoch != 1 || len(cls) != 2 {
		t.Fatalf("discovery through the healthy member found ring %v with %d clients", m, len(cls))
	}
}

// newBlobMember is newMember over a store that mounts a blob tier beside
// its results, as stored does.
func newBlobMember(t *testing.T, name string) (*httptest.Server, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := store.OpenFileBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBlobs(fb)
	srv := remote.NewServer(st)
	srv.SetSelf(name)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return ts, st
}

// TestRebalanceMovesTraces pins that a drain moves the blob tier with the
// results: traces captured through a two-member ring, rebalanced twice
// (a third member joins, then the weights change), each sit on exactly
// their ring owner afterwards, beside their results, and read back
// through a fresh fleet mount.
func TestRebalanceMovesTraces(t *testing.T) {
	tsA, authA := newBlobMember(t, "a")
	tsB, authB := newBlobMember(t, "b")
	tsC, authC := newBlobMember(t, "c")
	auths := []*store.Store{authA, authB, authC}
	urls := []string{tsA.URL, tsB.URL, tsC.URL}

	ring1 := ringOf(t, 1, []string{"a", "b"}, urls[:2])
	if err := remote.Rebalance(ring1, nil); err != nil {
		t.Fatal(err)
	}
	st, _, _, err := remote.MountFleet("", tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	keys := make([]string, n)
	trace := func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("step %d;", i)), 100+i) }
	for i := range keys {
		keys[i] = store.Key("captured", i)
		st.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
		st.BlobPut(keys[i], trace(i))
	}
	st.Close()
	if s := st.Stats(); s.BlobStored != n || s.PutErrors != 0 {
		t.Fatalf("capture through the ring: %+v", s)
	}

	ring2 := ringOf(t, 2, []string{"a", "b", "c"}, urls)
	ring3 := ringOf(t, 3, []string{"a", "b", "c"}, urls)
	ring3.Members[0].Weight = 4
	for _, ring := range []*store.Ring{ring2, ring3} {
		if err := remote.Rebalance(ring, nil); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			owner := ring.Owner(k)
			for m, auth := range auths {
				if got := auth.BlobHas(k); got != (m == owner) {
					t.Fatalf("epoch %d: trace %d on %s is %v; it belongs on %s alone",
						ring.Epoch, i, ring.Members[m].Name, got, ring.Members[owner].Name)
				}
				if got := auth.Has(k); got != (m == owner) {
					t.Fatalf("epoch %d: result %d on %s is %v; it belongs on %s alone",
						ring.Epoch, i, ring.Members[m].Name, got, ring.Members[owner].Name)
				}
			}
		}
	}

	fresh, _, mounted, err := remote.MountFleet("", tsB.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if mounted == nil || mounted.Epoch != 3 {
		t.Fatalf("fresh mount found ring %v, want epoch 3", mounted)
	}
	for i, k := range keys {
		if v, ok := fresh.BlobGet(k); !ok || !bytes.Equal(v, trace(i)) {
			t.Fatalf("trace %d through the fleet after two rebalances: ok=%v", i, ok)
		}
	}
}

// TestDrainRunsOnePassAtATime pins that a member runs one drain pass at a
// time. A client whose per-attempt timeout is shorter than the pass
// re-sends POST /v1/drain after each timeout (Client.do's retries); each
// re-send must wait for the pass already running and answer with its
// reply, not start a second DrainStore beside it. The slow owner counts
// the pushes it holds at once.
func TestDrainRunsOnePassAtATime(t *testing.T) {
	tsA, srvA, stA := newMember(t, "a")
	_, _, stB := newServer(t)
	var inFlight, peak, pushes atomic.Int32
	slowB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "put") {
			now := inFlight.Add(1)
			defer inFlight.Add(-1)
			pushes.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			time.Sleep(800 * time.Millisecond)
		}
		remote.NewServer(stB).ServeHTTP(w, r)
	}))
	t.Cleanup(slowB.Close)

	ring := ringOf(t, 1, []string{"a", "b"}, []string{tsA.URL, slowB.URL})
	if err := srvA.InstallRing(ring); err != nil {
		t.Fatal(err)
	}
	foreign := 0
	for i := 0; i < 40; i++ {
		k := store.Key("drain-once", i)
		stA.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i)))
		if ring.Owner(k) == 1 {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("no key is owned by b; the drain has nothing to push")
	}

	impatient, err := remote.NewClient(tsA.URL, &remote.Options{HTTPClient: &http.Client{Timeout: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := impatient.Drain(); err == nil {
		t.Fatal("a 100 ms client read a drain that holds 800 ms per push as done")
	}
	if got := impatient.Stats().Retried; got != remote.DefaultRetries {
		t.Fatalf("client retried the drain %d times, want %d", got, remote.DefaultRetries)
	}
	tsA.Close() // waits for every drain request a is still serving
	if p := peak.Load(); p != 1 {
		t.Fatalf("b held %d drain pushes at once (%d in all); a ran concurrent drain passes", p, pushes.Load())
	}

	// The one pass moved every foreign key; nothing is left to push.
	for i := 0; i < 40; i++ {
		k := store.Key("drain-once", i)
		_, onA := stA.Get(k)
		_, onB := stB.Get(k)
		if owned := ring.Owner(k) == 1; onA == owned || onB != owned {
			t.Fatalf("key %d (owned by b: %v): on a %v, on b %v", i, owned, onA, onB)
		}
	}
}
