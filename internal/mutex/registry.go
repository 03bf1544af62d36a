package mutex

// Algorithm names for the register-only algorithms defined in this package.
// The RMW-based algorithms register themselves from internal/rmw, so they
// resolve wherever that package is linked in.
const (
	// NameYangAnderson is the local-spin tournament algorithm [13].
	NameYangAnderson = "yang-anderson"
	// NamePeterson is the Peterson tournament.
	NamePeterson = "peterson"
	// NameBakery is Lamport's bakery.
	NameBakery = "bakery"
	// NameNaive is the intentionally unsafe single-register lock.
	NameNaive = "naive"
	// NameDekker is Dekker's two-process algorithm (n must be 2).
	NameDekker = "dekker"
	// NameDijkstra is Dijkstra's 1965 algorithm.
	NameDijkstra = "dijkstra"
	// NameFilter is Peterson's n-process filter lock.
	NameFilter = "filter"
	// NameBakeryScribble is the bakery plus a trailing inert shared write;
	// it exists to exercise the construction's hidden-write gadget.
	NameBakeryScribble = "bakery-scribble"
)

func init() {
	Register(NameYangAnderson, YangAnderson)
	Register(NamePeterson, Peterson)
	Register(NameBakery, Bakery)
	Register(NameNaive, Naive)
	Register(NameDekker, Dekker)
	Register(NameDijkstra, Dijkstra)
	Register(NameFilter, Filter)
	Register(NameBakeryScribble, BakeryScribble)
}
