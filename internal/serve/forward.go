// Peer forwarding: the cluster half of sreserved. When replicas are
// configured (Options.Peers/Self), the registry key space is
// partitioned by a consistent-hash ring (internal/shard), and a
// replica that receives a request for a key it does not own proxies
// the request to the owner instead of building the network locally —
// so each network is resident on exactly one replica and the cluster's
// aggregate capacity is the sum of the replicas', not N copies of the
// same working set.
//
// The forwarding rule is strictly one hop: the forwarder stamps an
// X-Sre-Forwarded header, and a replica that receives a stamped
// request always answers locally, even if its own ring disagrees about
// ownership. Two replicas with momentarily different peer lists can
// therefore mis-place a key (it builds on both until config
// converges), but they can never loop a request.
//
// Failure behavior: a peer that cannot be reached yields 503 +
// Retry-After: 1 — the cluster-level analogue of the Gate's admission
// 503, retryable once the peer (or an updated peer list) is back. A
// per-request deadline that expires mid-forward is 504, exactly as it
// is locally. Responses that do arrive are relayed verbatim — status,
// Retry-After, and body bytes — so a forwarded result (and its
// "cached" flag, batch size, or error payload) is byte-identical to
// what the owner produced.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sre/internal/metrics"
	"sre/internal/shard"
)

// ForwardHeader marks a request as already forwarded once; its value
// is the forwarding replica's address. A replica receiving it answers
// locally regardless of ring ownership, capping forwarding at one hop.
const ForwardHeader = "X-Sre-Forwarded"

// forwardLatencyBounds buckets the forward round-trip in milliseconds:
// loopback hops sit in the low buckets, cross-host hops and owner
// sweep time dominate the high ones.
var forwardLatencyBounds = []int64{1, 2, 5, 10, 25, 50, 100, 250, 1000, 2500, 10000}

// cluster holds one replica's view of the sharded deployment.
type cluster struct {
	ring   *shard.Ring
	self   string
	client *http.Client // shared pooled transport for peer hops

	forwarded   *metrics.Counter   // requests proxied to their owner
	forwardErrs *metrics.Counter   // proxied requests whose hop failed
	forwardHist *metrics.Histogram // forward round-trip, milliseconds
}

// newCluster validates the peer configuration and builds the replica's
// ring and shared forwarding client.
func newCluster(peers []string, self string, shardM *metrics.Shard) (*cluster, error) {
	ring, err := shard.New(peers, 0)
	if err != nil {
		return nil, err
	}
	if !ring.Contains(self) {
		return nil, fmt.Errorf("serve: self address %q is not in the peer list %v", self, ring.Nodes())
	}
	transport := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
	return &cluster{
		ring: ring,
		self: self,
		// No client-level timeout: each hop's deadline comes from the
		// request context (requestTimeout).
		client:      &http.Client{Transport: transport},
		forwarded:   shardM.Counter("sre_serve_forwarded_total"),
		forwardErrs: shardM.Counter("sre_serve_forward_errors_total"),
		forwardHist: shardM.Histogram("sre_serve_forward_latency_ms", forwardLatencyBounds),
	}, nil
}

// owner returns the replica owning key and whether that is this one.
func (c *cluster) owner(key Key) (string, bool) {
	o := c.ring.Owner(key.String())
	return o, o == c.self
}

// forward proxies req to owner with a per-hop deadline derived from
// the incoming request's context and timeout, and relays the owner's
// response verbatim. It is only ever called on un-stamped requests, so
// the stamped hop it issues terminates at the owner.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, owner string, req SimulateRequest) {
	c := s.cluster
	c.forwarded.Inc()

	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout(req))
	defer cancel()

	body, err := json.Marshal(req)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "re-encode forwarded request: " + err.Error()})
		return
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+owner+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "build forwarded request: " + err.Error()})
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ForwardHeader, c.self)

	start := time.Now()
	resp, err := c.client.Do(hreq)
	if err != nil {
		c.forwardErrs.Inc()
		if ctx.Err() == context.DeadlineExceeded {
			s.timeouts.Inc()
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline exceeded"})
			return
		}
		// Peer down (or unreachable): retryable against the cluster once
		// the owner — or an updated peer list — is back, so advertise
		// that exactly like every other 503 this server emits.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: fmt.Sprintf("peer %s unreachable: %v", owner, err)})
		return
	}
	defer resp.Body.Close()
	c.forwardHist.Observe(time.Since(start).Milliseconds())

	// Relay verbatim: status, the headers that carry semantics
	// (Retry-After on 503s must reach the client intact), and the body
	// bytes — a forwarded response is byte-identical to the owner's.
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
