// End-to-end fabric tests: real peer daemons (serve.Server over
// httptest), a real coordinator engine with the fabric client attached
// as its remote tier, and the determinism contract checked the only
// way that matters — rendered documents byte-identical to a
// single-process run, whatever the fleet does.
package fabric_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/report"
	"repro/internal/serve"
)

var testOpts = core.Options{Scale: 0.05, Seed: 1}

// goldenText renders the all-local reference document once per test.
func goldenText(t *testing.T) string {
	t.Helper()
	doc, err := core.RunWith(engine.New(2, 0), "fig6", testOpts)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return report.Text(doc)
}

// newPeer starts one peer daemon, optionally behind a middleware.
func newPeer(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	var h http.Handler = serve.New(engine.New(1, 0))
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator builds a coordinator engine with a fabric client over
// the given peers attached as its remote tier.
func newCoordinator(t *testing.T, peers ...string) (*engine.Engine, *fabric.Client) {
	t.Helper()
	fc, err := fabric.New(peers)
	if err != nil {
		t.Fatalf("fabric.New: %v", err)
	}
	eng := engine.New(2, 0)
	eng.AttachRemote(fc)
	return eng, fc
}

// TestFabricDocsByteIdentical is the core contract: a coordinator
// dispatching across two peers renders the byte-identical document a
// single process renders, remote answers land in the coordinator's own
// tiers (so a warm re-run touches neither the fleet nor the pool), and
// the remote tier's accounting shows the dispatches happened.
func TestFabricDocsByteIdentical(t *testing.T) {
	golden := goldenText(t)
	p1, p2 := newPeer(t, nil), newPeer(t, nil)
	eng, fc := newCoordinator(t, p1.URL, p2.URL)

	doc, err := core.RunWith(eng, "fig6", testOpts)
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	if got := report.Text(doc); got != golden {
		t.Fatalf("fabric document differs from single-process golden:\n--- fabric ---\n%s\n--- golden ---\n%s", got, golden)
	}
	cold := eng.Metrics()
	if cold.RemoteLookup.Count == 0 || fc.Metrics().Hits == 0 {
		t.Fatalf("no shard was answered remotely (remote lookups %d, fabric hits %d) — the fabric was not exercised",
			cold.RemoteLookup.Count, fc.Metrics().Hits)
	}

	// Warm re-run: every shard answers from the coordinator's mem tier;
	// nothing executes and nothing crosses the wire.
	doc2, err := core.RunWith(eng, "fig6", testOpts)
	if err != nil {
		t.Fatalf("warm fabric run: %v", err)
	}
	if got := report.Text(doc2); got != golden {
		t.Fatal("warm fabric document differs from golden")
	}
	warm := eng.Metrics()
	if warm.ShardsExecuted != cold.ShardsExecuted {
		t.Fatalf("warm run executed %d shards locally", warm.ShardsExecuted-cold.ShardsExecuted)
	}
	if warm.RemoteLookup.Count != cold.RemoteLookup.Count {
		t.Fatalf("warm run dispatched %d shards remotely", warm.RemoteLookup.Count-cold.RemoteLookup.Count)
	}
}

// TestFabricOutOfOrderAnswers staggers peer response latency so shard
// answers land in an order unrelated to dispatch order; the merged
// document must not care.
func TestFabricOutOfOrderAnswers(t *testing.T) {
	golden := goldenText(t)
	var n atomic.Int64
	scramble := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// 0ms, 45ms, 90ms, 15ms, 60ms, ... — adjacent dispatches
			// complete far out of issue order.
			time.Sleep(time.Duration(n.Add(1)*3%7) * 15 * time.Millisecond)
			next.ServeHTTP(w, r)
		})
	}
	p1, p2 := newPeer(t, scramble), newPeer(t, scramble)
	eng, _ := newCoordinator(t, p1.URL, p2.URL)

	doc, err := core.RunWith(eng, "fig6", testOpts)
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	if got := report.Text(doc); got != golden {
		t.Fatal("out-of-order peer answers changed the rendered document")
	}
}

// TestFabricPeerDeathFallback kills one peer after its second answer:
// remaining dispatches to it fail, the circuit opens, and the
// coordinator finishes the batch through local execution with output
// byte-identical to the all-local golden. A degraded fleet is slower,
// never wrong.
func TestFabricPeerDeathFallback(t *testing.T) {
	golden := goldenText(t)
	var served atomic.Int64
	dieAfter := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) > 2 {
				http.Error(w, "peer killed by test", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	p1, p2 := newPeer(t, nil), newPeer(t, dieAfter)
	eng, fc := newCoordinator(t, p1.URL, p2.URL)

	doc, err := core.RunWith(eng, "fig6", testOpts)
	if err != nil {
		t.Fatalf("fabric run with dead peer: %v", err)
	}
	if got := report.Text(doc); got != golden {
		t.Fatal("peer death changed the rendered document")
	}
	if pm := fc.Metrics().PerPeer[1]; pm.Errors == 0 {
		t.Fatalf("dying peer recorded no failed dispatch, so its death was never exercised: %+v", pm)
	}
	// Each failed dispatch is counted by the engine as a remote error
	// and its shard executed locally.
	if n := eng.Metrics().RemoteErrors; n == 0 {
		t.Fatal("engine counted no remote errors: no shard fell back to local execution")
	}
}

// TestFabricOversizedPayloadFallsBack has the peers answer every
// dispatch with a well-formed 1 MiB payload, past the coordinator's
// (lowered) cap. Read in full it would decode to a wrong value; the
// coordinator must stop at the cap, count the error against the peer,
// and recompute the shard locally, so the document stays byte-identical
// to the all-local golden.
func TestFabricOversizedPayloadFallsBack(t *testing.T) {
	defer fabric.SetMaxPeerPayload(64 << 10)()
	golden := goldenText(t)
	bloated := func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if err := engine.EncodePayload(w, strings.Repeat("x", 1<<20)); err != nil {
				t.Error(err)
			}
		})
	}
	p1, p2 := newPeer(t, bloated), newPeer(t, bloated)
	eng, fc := newCoordinator(t, p1.URL, p2.URL)

	doc, err := core.RunWith(eng, "fig6", testOpts)
	if err != nil {
		t.Fatalf("fabric run with bloated peers: %v", err)
	}
	if got := report.Text(doc); got != golden {
		t.Fatal("an oversized peer payload changed the rendered document")
	}
	if m := fc.Metrics(); m.Dispatches == 0 || m.Errors == 0 || m.Hits != 0 {
		t.Fatalf("fabric metrics %+v: want dispatches that all failed", m)
	}
	if eng.Metrics().ShardsExecuted == 0 {
		t.Fatal("no shard fell back to local execution")
	}
}
