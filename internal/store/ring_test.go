package store_test

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/store"
)

// TestRingElasticity pins the property the whole migration design rests
// on: growing a ring by one member only moves keys TO the new member —
// every key the new member does not own keeps its old owner — and each
// moved key's runner-up under the new ring is exactly its old owner, so
// failover reads cover the mid-migration window.
func TestRingElasticity(t *testing.T) {
	two, err := store.NewRing(1, store.Member{Name: "a"}, store.Member{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	three, err := store.NewRing(2, store.Member{Name: "a"}, store.Member{Name: "b"}, store.Member{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	moved := 0
	for i := 0; i < n; i++ {
		k := store.Key("v1", i)
		oldOwner := two.Members[two.Owner(k)].Name
		rank := three.Rank(k)
		newOwner := three.Members[rank[0]].Name
		if newOwner == oldOwner {
			continue
		}
		moved++
		if newOwner != "c" {
			t.Fatalf("key %d moved from %s to %s: growth must only move keys to the new member", i, oldOwner, newOwner)
		}
		if runnerUp := three.Members[rank[1]].Name; runnerUp != oldOwner {
			t.Fatalf("key %d moved to c with runner-up %s, want its old owner %s", i, runnerUp, oldOwner)
		}
	}
	// A third member should take roughly a third of the key space; accept a
	// generous band so the test pins the property, not the hash.
	if moved < n/5 || moved > n/2 {
		t.Fatalf("growing 2→3 moved %d of %d keys, want roughly a third", moved, n)
	}
}

// TestRingWeights pins that weight scales ownership share roughly
// linearly: a weight-2 member owns about twice a weight-1 member's keys.
func TestRingWeights(t *testing.T) {
	ring, err := store.NewRing(1, store.Member{Name: "light", Weight: 1}, store.Member{Name: "heavy", Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	heavy := 0
	for i := 0; i < n; i++ {
		if ring.Members[ring.Owner(store.Key("v1", i))].Name == "heavy" {
			heavy++
		}
	}
	// Expected 2/3 ≈ 2000; accept a wide band.
	if heavy < n/2 || heavy > n*4/5 {
		t.Fatalf("weight-2 member owns %d of %d keys, want about two thirds", heavy, n)
	}
}

// TestRingOwnerIgnoresURL pins that the hashing identity is the member
// name: a replica can move hosts (URL change) without moving a single key.
func TestRingOwnerIgnoresURL(t *testing.T) {
	before, _ := store.NewRing(1, store.Member{Name: "a", URL: "http://h1:9200"}, store.Member{Name: "b", URL: "http://h2:9200"})
	after, _ := store.NewRing(2, store.Member{Name: "a", URL: "http://h3:9200"}, store.Member{Name: "b", URL: "http://h4:9200"})
	for i := 0; i < 200; i++ {
		k := store.Key("v1", i)
		if before.Owner(k) != after.Owner(k) {
			t.Fatal("changing a member URL moved keys; placement must hash the name only")
		}
	}
}

// TestRingValidation pins the loud-failure contract for malformed rings.
func TestRingValidation(t *testing.T) {
	if _, err := store.NewRing(1); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := store.NewRing(1, store.Member{Name: ""}); err == nil {
		t.Fatal("unnamed member accepted")
	}
	if _, err := store.NewRing(1, store.Member{Name: "a"}, store.Member{Name: "a"}); err == nil {
		t.Fatal("duplicate member name accepted")
	}
	r, err := store.NewRing(1, store.Member{Name: "a", Weight: -3})
	if err != nil || r.Members[0].Weight != 1 {
		t.Fatalf("non-positive weight must normalize to 1: %+v err=%v", r, err)
	}
	// NaN owns no key and +Inf every key, and JSON can carry neither, so a
	// ring holding one would answer GET /v1/ring with an empty body.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := store.NewRing(1, store.Member{Name: "a", Weight: w}, store.Member{Name: "b"}); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
		bad := store.Ring{Epoch: 1, Members: []store.Member{{Name: "a", Weight: w}, {Name: "b", Weight: 1}}}
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted weight %v", w)
		}
	}
	// JSON would rewrite these bytes, and with them the member's keys.
	if _, err := store.NewRing(1, store.Member{Name: "a\xff"}); err == nil {
		t.Fatal("member name that is not UTF-8 accepted")
	}
	if r.Index("a") != 0 || r.Index("ghost") != -1 {
		t.Fatal("Index must find members by name and report absentees as -1")
	}
}

// TestParseRingSpec pins the CLI ring notation.
func TestParseRingSpec(t *testing.T) {
	ring, err := store.ParseRingSpec(3, "a=http://h1:9200, b=http://h2:9200*2")
	if err != nil {
		t.Fatal(err)
	}
	if ring.Epoch != 3 || len(ring.Members) != 2 {
		t.Fatalf("parsed %s, want epoch 3 with 2 members", ring)
	}
	if m := ring.Members[1]; m.Name != "b" || m.URL != "http://h2:9200" || m.Weight != 2 {
		t.Fatalf("member b parsed as %+v", m)
	}
	for _, bad := range []string{"", ",", "nourl", "=http://h:1", "a=", "a=u*zero", "a=u*-1", "a=u,a=v",
		"a=u*NaN,b=v", "a=u*nan", "a=u*Inf,b=v", "a=u*+Inf", "a=u*-Inf", "a=u*infinity", "a=u*1e400", "\xff=u"} {
		if _, err := store.ParseRingSpec(1, bad); err == nil {
			t.Fatalf("ring spec %q accepted", bad)
		}
	}
}

// TestRouterFailoverReadsRunnerUp pins the rendezvous failover read: a key
// present only on its runner-up replica — exactly the state a drain in
// flight leaves a moved key in, or a down owner forces — is still readable
// through the router, point and batched, while writes keep going to the
// owner alone. Blob reads take the same walk, so blob-capable replicas are
// a second input.
func TestRouterFailoverReadsRunnerUp(t *testing.T) {
	for _, blobs := range []bool{false, true} {
		name := "results"
		if blobs {
			name = "blobs"
		}
		t.Run(name, func(t *testing.T) {
			replicas := []*blobMapBackend{newBlobMapBackend(), newBlobMapBackend(), newBlobMapBackend()}
			backends := make([]store.Backend, len(replicas))
			for i, b := range replicas {
				backends[i] = b.mapBackend // no blob surface
				if blobs {
					backends[i] = b
				}
			}
			ring := store.UniformRing(len(backends))
			r := store.NewRingRouter(ring, backends...)
			defer r.Close()
			plant := func(i int, k string, v []byte) { replicas[i].m[k] = v }
			get, has := r.Get, r.Has
			if blobs {
				plant = func(i int, k string, v []byte) { replicas[i].blobs[k] = v }
				get, has = r.BlobGet, r.BlobHas
			}

			const n = 60
			var keys []string
			for i := 0; i < n; i++ {
				k := store.Key("v1", i)
				keys = append(keys, k)
				// Plant the value on the runner-up only: the "old owner still
				// holds it, new owner not yet drained to" state.
				plant(ring.Rank(k)[1], k, []byte(fmt.Sprintf(`{"i":%d}`, i)))
			}
			for i, k := range keys {
				if v, ok, err := get(k); !ok || err != nil || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
					t.Fatalf("key %d on runner-up: %q ok=%v err=%v", i, v, ok, err)
				}
				if !has(k) {
					t.Fatalf("key %d on runner-up: Has=false", i)
				}
			}
			if !blobs {
				got, err := r.GetBatch(keys)
				if err != nil || len(got) != n {
					t.Fatalf("GetBatch found %d of %d err=%v", len(got), n, err)
				}
				present, err := r.HasBatch(keys)
				if err != nil || len(present) != n {
					t.Fatalf("HasBatch found %d of %d err=%v", len(present), n, err)
				}
			}
			// Keys beyond rank 2 are NOT probed: plant one on the last rank
			// of a 3-ring and it must read as a miss (bounded failover, not
			// a broadcast).
			k := store.Key("v1", "deep")
			plant(ring.Rank(k)[2], k, []byte(`{"deep":true}`))
			if _, ok, _ := get(k); ok {
				t.Fatal("rank-3 replica served a read; failover must stop at the runner-up")
			}
			if has(k) {
				t.Fatal("rank-3 replica answered presence; failover must stop at the runner-up")
			}
		})
	}
}

// TestRouterFailoverDownOwner pins that a down owner's keys stay readable
// when the runner-up holds them (a drained replica mid-decommission), and
// that the owner's error surfaces once no rank can serve the key.
func TestRouterFailoverDownOwner(t *testing.T) {
	replicas := []*mapBackend{newMapBackend(), newMapBackend(), newMapBackend()}
	ring := store.UniformRing(3)
	r := store.NewRingRouter(ring, replicas[0], replicas[1], replicas[2])
	defer r.Close()

	k := store.Key("v1", "x")
	rank := ring.Rank(k)
	val := []byte(`{"x":1}`)
	replicas[rank[0]].m[k] = val
	replicas[rank[1]].m[k] = val
	replicas[rank[0]].down = true

	if v, ok, err := r.Get(k); !ok || err != nil || string(v) != string(val) {
		t.Fatalf("down owner with warm runner-up: %q ok=%v err=%v", v, ok, err)
	}
	if !r.Has(k) {
		t.Fatal("down owner with warm runner-up: Has=false")
	}
	delete(replicas[rank[1]].m, k)
	if _, ok, err := r.Get(k); ok || err == nil {
		t.Fatalf("down owner, cold runner-up: ok=%v err=%v, want a miss carrying the owner's error", ok, err)
	}
}

// FuzzParseRingSpec feeds the CLI ring notation arbitrary specs. The seed
// corpus in testdata/fuzz/FuzzParseRingSpec holds well-formed weighted
// specs and the non-finite weights ParseRingSpec refuses. For every
// input:
//
//   - the parser returns without panicking;
//   - an accepted ring has finite positive weights and passes Validate;
//   - it survives the JSON that carries it to /v1/ring: the decoded ring
//     passes Validate and has the same epoch and members.
func FuzzParseRingSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, epoch uint64, spec string) {
		ring, err := store.ParseRingSpec(epoch, spec)
		if err != nil {
			return
		}
		for _, m := range ring.Members {
			if !(m.Weight > 0) || math.IsInf(m.Weight, 0) {
				t.Fatalf("spec %q: member %q has weight %v", spec, m.Name, m.Weight)
			}
		}
		if err := ring.Validate(); err != nil {
			t.Fatalf("spec %q: accepted ring fails Validate: %v", spec, err)
		}
		b, err := json.Marshal(ring)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		var back store.Ring
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("spec %q: %s does not decode: %v", spec, b, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("spec %q: ring fails Validate after JSON: %v", spec, err)
		}
		if !reflect.DeepEqual(&back, ring) {
			t.Fatalf("spec %q: JSON turned %+v into %+v", spec, *ring, back)
		}
	})
}
