// Package fabric is the distributed shard tier: a coordinator-side
// client that consistent-hashes engine shard addresses across a
// configured peer set of rowpressd daemons and dispatches the keys it
// does not own over the existing /v1 surface as gob shard payloads,
// and the peer-side resolver that answers those dispatches from the
// peer's own cache tiers and worker pool.
//
// The client implements engine.RemoteTier, so it slots beneath the
// local mem/disk tiers and above local execution: single-flight
// dedup, sub-shard splits, and unit-level warm hits all work
// unchanged across the wire. A dispatch has two outcomes: the ring
// owner answers one /v1/shard request, or the coordinator executes the
// shard itself. Shards are deterministic, so a locally computed shard
// is byte-identical to the peer's answer and a failed dispatch is
// never resent. A per-peer circuit breaker skips a peer after
// repeated failures, turning a down peer into silent local execution:
// a degraded fleet is slower, never wrong.
package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TierHeader is the response header a peer sets on /v1/shard answers,
// naming the tier that answered on the peer ("mem", "disk", "join",
// or "execute"). The coordinator uses it to count warm remote hits —
// the shared-cache property working — separately from remote compute.
const TierHeader = "X-Fabric-Tier"

const (
	virtualNodes    = 64              // ring points per member
	dispatchTimeout = 2 * time.Minute // per-dispatch HTTP timeout
	inFlightPerPeer = 4               // concurrent dispatches per configured peer
	failureLimit    = 3               // consecutive failures opening a peer's circuit
	cooldown        = 5 * time.Second // circuit-open duration before the peer is tried again
)

// maxPeerPayload caps the bytes of a peer's /v1/shard answer the
// coordinator decodes. Shard payloads are kilobytes; a body past the cap
// comes from a faulty or hostile peer, and the shard falls back to local
// execution instead of being read without bound.
var maxPeerPayload int64 = 64 << 20

// peer is the client-side state for one configured peer.
type peer struct {
	url  string
	hist *obs.Histogram // successful round-trip latencies

	mu          sync.Mutex
	consecFails int
	downUntil   time.Time

	dispatches uint64 // requests sent
	hits       uint64 // successful answers
	warmHits   uint64 // answers served from the peer's mem/disk tiers
	errors     uint64 // failed requests
}

func (p *peer) up(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !now.Before(p.downUntil)
}

// Client is the coordinator side of the fabric. It is safe for
// concurrent use and implements engine.RemoteTier.
type Client struct {
	ring  *ring
	peers []*peer
	http  *http.Client
	sem   chan struct{}

	// maxPayload is maxPeerPayload when the client was built, so a test
	// lowering the cap cannot race another client's request in flight.
	maxPayload int64
}

// New builds a client over the given peer base URLs (e.g.
// http://10.0.0.2:8080; a missing scheme means http). At least one peer
// is required — a fabric of one process is just a local engine.
func New(peerURLs []string) (*Client, error) {
	if len(peerURLs) == 0 {
		return nil, errors.New("fabric: no peers configured")
	}
	urls := make([]string, len(peerURLs))
	peers := make([]*peer, len(peerURLs))
	for i, u := range peerURLs {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("fabric: empty peer URL at index %d", i)
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls[i] = u
		peers[i] = &peer{url: u, hist: obs.NewLatencyHistogram()}
	}
	return &Client{
		ring:  newRing(urls, virtualNodes),
		peers: peers,
		http:  &http.Client{Timeout: dispatchTimeout},
		sem:   make(chan struct{}, inFlightPerPeer*len(peers)),

		maxPayload: maxPeerPayload,
	}, nil
}

// Peers returns the normalized peer URLs in configuration order.
func (c *Client) Peers() []string {
	out := make([]string, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.url
	}
	return out
}

// Resolve implements engine.RemoteTier: it consistent-hashes the
// shard address and, when a live remote peer owns it, sends that peer
// one /v1/shard request. It returns ok=false (execute locally) when the
// key is locally owned or the owner's circuit is open. A non-nil error
// means the owner's answer failed; the engine counts it and executes
// the shard locally.
func (c *Client) Resolve(key string, req engine.RemoteRequest) (v any, peerURL string, ok bool, err error) {
	o, isOpts := req.Meta.(core.Options)
	if !isOpts {
		return nil, "", false, nil
	}
	owner := c.ring.owner(key)
	if owner == localMember {
		return nil, "", false, nil
	}
	// The circuit is checked once a slot is held: a dispatch that queued
	// behind the semaphore while the owner failed must not reach it.
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	pr := c.peers[owner]
	if !pr.up(time.Now()) {
		return nil, "", false, nil
	}
	body, err := json.Marshal(ShardRequest{
		Experiment: req.Experiment,
		Scale:      o.Scale,
		Seed:       o.Seed,
		Modules:    o.Modules,
		Shard:      req.Shard,
		Sub:        req.Sub,
		Key:        key,
	})
	if err != nil {
		return nil, "", false, err
	}
	pr.mu.Lock()
	pr.dispatches++
	pr.mu.Unlock()
	t0 := time.Now()
	v, tier, err := c.post(pr.url, body)
	if err != nil {
		pr.mu.Lock()
		pr.errors++
		pr.consecFails++
		if pr.consecFails >= failureLimit {
			pr.downUntil = time.Now().Add(cooldown)
		}
		pr.mu.Unlock()
		return nil, "", false, err
	}
	pr.hist.Observe(time.Since(t0))
	pr.mu.Lock()
	pr.consecFails = 0
	pr.hits++
	if tier == engine.TierMem || tier == engine.TierDisk {
		pr.warmHits++
	}
	pr.mu.Unlock()
	return v, pr.url, true, nil
}

// post performs one /v1/shard round trip.
func (c *Client) post(base string, body []byte) (v any, tier string, err error) {
	resp, err := c.http.Post(base+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, "", fmt.Errorf("fabric: peer %s: %s: %s", base, resp.Status, strings.TrimSpace(string(msg)))
	}
	lr := &io.LimitedReader{R: resp.Body, N: c.maxPayload + 1}
	v, err = engine.DecodePayload(lr)
	if lr.N == 0 {
		return nil, "", fmt.Errorf("fabric: peer %s: payload exceeds %d bytes", base, c.maxPayload)
	}
	if err != nil {
		return nil, "", fmt.Errorf("fabric: peer %s: decode payload: %w", base, err)
	}
	return v, resp.Header.Get(TierHeader), nil
}

// PeerStatus is one peer's health as seen from the coordinator: a
// live probe of the peer's liveness endpoint plus the client-side
// circuit state.
type PeerStatus struct {
	URL         string `json:"url"`
	Reachable   bool   `json:"reachable"`
	Error       string `json:"error,omitempty"`
	CircuitOpen bool   `json:"circuit_open"`
}

// Status probes every peer's /healthz concurrently with the given
// timeout. The serving layer's readiness check uses it to report a
// degraded (but still correct, via local fallback) coordinator.
func (c *Client) Status(timeout time.Duration) []PeerStatus {
	if timeout <= 0 {
		timeout = time.Second
	}
	probe := &http.Client{Timeout: timeout}
	out := make([]PeerStatus, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			st := PeerStatus{URL: p.url, CircuitOpen: !p.up(time.Now())}
			resp, err := probe.Get(p.url + "/healthz")
			if err != nil {
				st.Error = err.Error()
			} else {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					st.Reachable = true
				} else {
					st.Error = resp.Status
				}
			}
			out[i] = st
		}(i, p)
	}
	wg.Wait()
	return out
}

// PeerMetrics is the cumulative client-side view of one peer.
type PeerMetrics struct {
	URL         string  `json:"url"`
	Dispatches  uint64  `json:"dispatches"`
	Hits        uint64  `json:"hits"`
	WarmHits    uint64  `json:"warm_hits"`
	Errors      uint64  `json:"errors"`
	CircuitOpen bool    `json:"circuit_open"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
}

// Metrics is the aggregate client-side fabric view.
type Metrics struct {
	Peers      int           `json:"peers"`
	Dispatches uint64        `json:"dispatches"`
	Hits       uint64        `json:"hits"`
	WarmHits   uint64        `json:"warm_hits"`
	Errors     uint64        `json:"errors"`
	PerPeer    []PeerMetrics `json:"per_peer"`
}

// Metrics snapshots the per-peer counters.
func (c *Client) Metrics() Metrics {
	m := Metrics{Peers: len(c.peers), PerPeer: make([]PeerMetrics, len(c.peers))}
	now := time.Now()
	for i, p := range c.peers {
		s := p.hist.Snapshot()
		p.mu.Lock()
		pm := PeerMetrics{
			URL:         p.url,
			Dispatches:  p.dispatches,
			Hits:        p.hits,
			WarmHits:    p.warmHits,
			Errors:      p.errors,
			CircuitOpen: now.Before(p.downUntil),
		}
		p.mu.Unlock()
		pm.P50MS = float64(s.Quantile(0.50)) / float64(time.Millisecond)
		pm.P95MS = float64(s.Quantile(0.95)) / float64(time.Millisecond)
		m.PerPeer[i] = pm
		m.Dispatches += pm.Dispatches
		m.Hits += pm.Hits
		m.WarmHits += pm.WarmHits
		m.Errors += pm.Errors
	}
	return m
}
