package remote

import (
	"net/http"
	"slices"
)

// Metrics surface: GET /v1/metrics renders the server's counters through
// the shared exposition primitives of expo.go. The endpoint partition
// below is stored's own; cmd/experimentd carries its own partition over
// the same LatencySet machinery.

// metricEndpoints names the latency-histogram partitions, one per /v1
// path plus a catch-all. Order is the exposition order.
var metricEndpoints = [...]string{
	"get", "has", "put", "mget", "mhas", "mput", "stats", "compact",
	"ring", "drain", "blob_get", "blob_put", "blob_has", "metrics", "other",
}

// metricPaths are the /v1 paths of metricEndpoints, index for index; any
// other path counts under the trailing catch-all.
var metricPaths = [...]string{
	"/v1/get", "/v1/has", "/v1/put", "/v1/mget", "/v1/mhas", "/v1/mput", "/v1/stats", "/v1/compact",
	"/v1/ring", "/v1/drain", "/v1/blob/get", "/v1/blob/put", "/v1/blob/has", "/v1/metrics",
}

// metricEndpointIndex classifies a request path into metricEndpoints.
func metricEndpointIndex(path string) int {
	if i := slices.Index(metricPaths[:], path); i >= 0 {
		return i
	}
	return len(metricPaths)
}

// handleMetrics serves GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := StartExposition(w)
	defer e.Flush() //repro:degrade a response-write failure means the scraper hung up

	// Request totals come from the dispatch-time histograms, so every
	// endpoint — stats and metrics included — counts uniformly.
	s.lat.Write(e)

	e.Gauge("stored_entries", "Result entries in the durable tier.", int64(s.st.Len()))
	e.Gauge("stored_blob_entries", "Trace blobs in the blob tier.", int64(s.st.BlobLen()))
	e.Gauge("stored_ring_epoch", "Installed placement ring epoch (0 when ring-less).", int64(s.epoch()))
	e.Counter("stored_conflicts_total", "Overwrites that changed a key's bytes (version skew or a writer bug).", s.conflicts.Load())
	e.StoreStats("stored", s.st.Stats())
}
