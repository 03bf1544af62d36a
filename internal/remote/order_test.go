package remote

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// TestRingClientsNamesFirstStrayFlagURL: with several flag URLs outside
// the fleet's ring, the refusal names the first of them in flag order,
// every time.
func TestRingClientsNamesFirstStrayFlagURL(t *testing.T) {
	ring, err := store.NewRing(1, store.Member{Name: "a", URL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	var flagClients []*Client
	for _, u := range []string{"http://127.0.0.1:1", "http://127.0.0.1:3", "http://127.0.0.1:2", "http://127.0.0.1:4"} {
		cl, err := NewClient(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		flagClients = append(flagClients, cl)
	}
	const want = "remote: store http://127.0.0.1:3 is not a member of the fleet's ring (epoch 1, members a)"
	for i := 0; i < 20; i++ {
		if _, err := ringClients(ring, flagClients); err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}

// TestDrainStoreErrorsInRingOrder: a drain whose pushes fail to several
// owners reports them in ring order, every time.
func TestDrainStoreErrorsInRingOrder(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Members without a URL: every push to them fails at once, off the
	// network.
	ring, err := store.NewRing(1,
		store.Member{Name: "self"}, store.Member{Name: "d"}, store.Member{Name: "b"},
		store.Member{Name: "e"}, store.Member{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]bool, len(ring.Members))
	for i := 0; i < 200; i++ {
		k := store.Key("drain-order", i)
		st.Put(k, []byte(`{"v":1}`))
		owned[ring.Owner(k)] = true
	}
	for i, ok := range owned {
		if !ok {
			t.Fatalf("member %s owns none of the keys; the test needs every member to", ring.Members[i].Name)
		}
	}
	const want = `remote: ring member "d" has no URL to drain to` + "\n" +
		`remote: ring member "b" has no URL to drain to` + "\n" +
		`remote: ring member "e" has no URL to drain to` + "\n" +
		`remote: ring member "c" has no URL to drain to`
	for i := 0; i < 20; i++ {
		dr, err := DrainStore(st, ring, "self")
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want\n%s", i, err, want)
		}
		if dr.Moved != 0 || dr.Deleted != 0 {
			t.Fatalf("call %d: moved %d and deleted %d keys with no owner reachable", i, dr.Moved, dr.Deleted)
		}
	}
}

// TestDrainChunksBlobsByBytes pins the drain's byte bound: blobs, which
// reach megabytes, close a push chunk once its values reach
// drainChunkBytes, long before drainChunk records, and the owner receives
// every one of them.
func TestDrainChunksBlobsByBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 24 MiB of blobs")
	}
	target, owner := newBlobServer(t, true)
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fb, err := store.OpenFileBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBlobs(fb)
	ring, err := store.NewRing(1, store.Member{Name: "self"}, store.Member{Name: "t", URL: target.URL})
	if err != nil {
		t.Fatal(err)
	}
	// Three blobs owned by t, each over half the byte bound: the first
	// two close one chunk, the third travels alone.
	payload := bytes.Repeat([]byte("step;"), (drainChunkBytes/2+1)/5+1)
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		if k := store.Key("big", i); ring.Owner(k) == 1 {
			keys = append(keys, k)
			st.BlobPut(k, payload)
		}
	}
	dr, err := DrainStore(st, ring, "self")
	if err != nil {
		t.Fatal(err)
	}
	if dr.Moved != 3 || dr.Deleted != 3 || st.BlobLen() != 0 {
		t.Fatalf("drain moved %d and deleted %d blobs, %d left; want 3, 3 and 0", dr.Moved, dr.Deleted, st.BlobLen())
	}
	for _, k := range keys {
		if v, ok := owner.BlobGet(k); !ok || !bytes.Equal(v, payload) {
			t.Fatalf("blob %s did not land on its owner", k)
		}
	}
	sr, err := newBlobClient(t, target.URL).Ping()
	if err != nil || sr.Requests.BlobPut != 2 {
		t.Fatalf("owner received %d blob puts (err %v), want 2 byte-bounded chunks", sr.Requests.BlobPut, err)
	}
}
