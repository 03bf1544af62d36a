package store

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Ring is the placement layer of the fleet store: a weighted rendezvous
// hash over named members, stamped with a monotonic epoch. It is the one
// object every process consults to answer "who owns this key?" — the
// Router routes through it, prime-shard passes partition through it
// (UniformRing), stored replicas serve it at /v1/ring so clients learn
// placement from any member instead of flag order, and the migrator
// streams keys between replicas when a new epoch changes the answer.
//
// Rendezvous (highest-random-weight) hashing gives the property that makes
// a fleet elastic: each member's score for a key depends only on the
// (member name, key) pair, so adding or removing a member never reshuffles
// keys among the surviving members — a key either stays put or moves
// to/from the changed member. Better still, the member ranking with the
// new member removed IS the old ranking, so a key that moved to a new
// member has its previous owner as runner-up (Rank[1]); the Router's
// failover reads exploit exactly that during a migration.
//
// Weights scale a member's share of the key space linearly (a weight-2
// member owns about twice a weight-1 member's keys), so heterogeneous
// replicas can carry proportional slices.
//
// The epoch orders placements in time: a resize publishes a new Ring with
// a strictly larger epoch, replicas echo their installed epoch on every
// reply, and a client holding a smaller epoch knows its placement is
// stale. Epoch 0 is the "flag ring" — placement derived from a CLI's URL
// list with no authority behind it.
type Ring struct {
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// Member is one named replica of a Ring. Name is the hashing identity —
// it, not the URL, decides placement, so a replica can move hosts without
// moving keys. URL is where the member is reachable (empty for purely
// logical members, e.g. shard partitions). Weight scales the member's
// share of the key space; NewRing refuses a weight that is not finite and
// normalizes a non-positive one to 1.
type Member struct {
	Name   string  `json:"name"`
	URL    string  `json:"url,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// NewRing validates and returns a ring over the given members: names must
// be non-empty and unique, names and URLs valid UTF-8 (JSON, which carries
// a ring to /v1/ring, would rewrite other bytes, and a rewritten name
// moves the member's keys), and at least one member is required. A weight must be finite: NaN would own
// no key and +Inf every key, and neither survives JSON. A non-positive
// weight normalizes to 1, which a ring posted without weights relies on.
func NewRing(epoch uint64, members ...Member) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("store: ring needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	ms := make([]Member, len(members))
	for i, m := range members {
		if m.Name == "" {
			return nil, fmt.Errorf("store: ring member %d has no name", i)
		}
		if !utf8.ValidString(m.Name) || !utf8.ValidString(m.URL) {
			return nil, fmt.Errorf("store: ring member %q is not valid UTF-8", m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("store: duplicate ring member %q", m.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
			return nil, fmt.Errorf("store: ring member %q has weight %v; want a finite number", m.Name, m.Weight)
		}
		if m.Weight <= 0 {
			m.Weight = 1
		}
		ms[i] = m
	}
	return &Ring{Epoch: epoch, Members: ms}, nil
}

// UniformRing returns the epoch-0 ring of m equal-weight logical members
// ("s1"…"sm") that prime-shard passes partition the key space with: shard
// i of m owns exactly the keys Owner assigns to member index i. Every
// process constructs the identical ring from m alone, so fleet shards
// agree on the partition with no coordination.
func UniformRing(m int) *Ring {
	if m < 1 {
		m = 1
	}
	members := make([]Member, m)
	for i := range members {
		members[i] = Member{Name: "s" + strconv.Itoa(i+1), Weight: 1}
	}
	return &Ring{Members: members}
}

// FlagRing returns the epoch-0 ring a bare URL list implies: one member
// per URL, named by the URL, equal weight, in list order. It is the
// placement fleets used before rings existed — every process must pass
// the same list — and remains the fallback when no replica serves an
// authoritative ring.
func FlagRing(urls ...string) *Ring {
	members := make([]Member, len(urls))
	for i, u := range urls {
		members[i] = Member{Name: u, URL: u, Weight: 1}
	}
	return &Ring{Members: members}
}

// Index returns the member index of the given name, or -1 when the name
// is not a member (a replica draining itself out of the fleet).
func (r *Ring) Index(name string) int {
	for i, m := range r.Members {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the member names in ring order (diagnostics).
func (r *Ring) Names() []string {
	out := make([]string, len(r.Members))
	for i, m := range r.Members {
		out[i] = m.Name
	}
	return out
}

// Validate re-checks an externally decoded ring (a /v1/ring body) against
// NewRing's invariants.
func (r *Ring) Validate() error {
	_, err := NewRing(r.Epoch, r.Members...)
	return err
}

// score is member mi's rendezvous score for key: -weight/log(u) with u a
// uniform (0,1) hash of (member name, key). Scores are independent across
// members — the property every elasticity guarantee above rests on — and
// weights scale expected ownership share linearly (weighted rendezvous
// hashing à la Thaler–Ravishankar).
func (r *Ring) score(mi int, key string) float64 {
	h := uint64(14695981039346656037) // FNV-64a offset basis
	const prime = 1099511628211
	name := r.Members[mi].Name
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	h = (h ^ 0) * prime // separator: "ab"+"c" and "a"+"bc" must differ
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	// Map the hash to u ∈ (0,1): 53 mantissa bits, offset by ½ulp so u is
	// never 0 or 1 and log(u) is finite and negative.
	u := (float64(h>>11) + 0.5) / (1 << 53)
	return -r.Members[mi].Weight / math.Log(u)
}

// Owner returns the index of the member owning key: the rendezvous
// score maximum, ties broken by member name so every process agrees.
func (r *Ring) Owner(key string) int {
	best, bestScore := 0, math.Inf(-1)
	for i := range r.Members {
		s := r.score(i, key)
		if s > bestScore || (s == bestScore && r.Members[i].Name < r.Members[best].Name) {
			best, bestScore = i, s
		}
	}
	return best
}

// Rank returns all member indexes in descending rendezvous order for key:
// Rank[0] is the owner, Rank[1] the runner-up a failover read tries next.
// Because member scores are mutually independent, Rank with any member
// deleted is the Rank of the ring without that member — which is why the
// runner-up of a freshly moved key is exactly its previous owner.
func (r *Ring) Rank(key string) []int {
	idx := make([]int, len(r.Members))
	scores := make([]float64, len(r.Members))
	for i := range r.Members {
		idx[i] = i
		scores[i] = r.score(i, key)
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return r.Members[idx[a]].Name < r.Members[idx[b]].Name
	})
	return idx
}

// ParseRingSpec parses the CLI ring notation: a comma-separated list of
// "name=url" members, each with an optional "*weight" suffix, e.g.
//
//	a=http://10.0.0.1:9200,b=http://10.0.0.2:9200*2
//
// into a ring at the given epoch. The whole spec must parse — a typoed
// member fails loudly instead of silently mis-placing the key space.
func ParseRingSpec(epoch uint64, spec string) (*Ring, error) {
	var members []Member
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("store: bad ring member %q: want name=url[*weight]", part)
		}
		weight := 1.0
		url := rest
		if u, w, ok := strings.Cut(rest, "*"); ok {
			f, err := strconv.ParseFloat(w, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("store: bad ring member %q: weight %q is not a finite positive number", part, w)
			}
			url, weight = u, f
		}
		members = append(members, Member{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url), Weight: weight})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("store: ring spec %q names no members", spec)
	}
	return NewRing(epoch, members...)
}

// String renders the ring for diagnostics: epoch and member names.
func (r *Ring) String() string {
	if r == nil {
		return "ring(nil)"
	}
	return fmt.Sprintf("ring(epoch=%d members=%s)", r.Epoch, strings.Join(r.Names(), ","))
}
