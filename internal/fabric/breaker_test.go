package fabric

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// heldFailures is a peer transport that fails every request, holding
// each one until release is closed and counting those that arrive.
type heldFailures struct {
	arrived chan struct{}
	release chan struct{}
	n       atomic.Int64
}

func (h *heldFailures) RoundTrip(*http.Request) (*http.Response, error) {
	h.n.Add(1)
	h.arrived <- struct{}{}
	<-h.release
	return nil, errors.New("peer down")
}

// queuedDispatches counts goroutines blocked in Resolve waiting for a
// dispatch slot.
func queuedDispatches() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan send") && strings.Contains(g, "fabric.(*Client).Resolve(") {
			n++
		}
	}
	return n
}

// TestBreakerCheckedAfterSlot queues three times the dispatch slots'
// worth of shards behind a failing peer: the first wave holds every
// slot at the peer while the rest wait for one, then every request
// fails. The circuit opens at the failureLimit-th failure, and only the
// requests already holding a slot at that moment may still reach the
// peer, so it sees at most failureLimit + cap(sem) - 1 requests within
// one cooldown — not every dispatch that queued while it was failing.
func TestBreakerCheckedAfterSlot(t *testing.T) {
	c, err := New([]string{"http://peer.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	slots := cap(c.sem)
	n := 3 * slots
	rt := &heldFailures{arrived: make(chan struct{}, n), release: make(chan struct{})}
	c.http = &http.Client{Transport: rt}

	req := engine.RemoteRequest{Experiment: "fig6", Meta: core.Options{Scale: 0.05, Seed: 1}, Shard: "s"}
	var wg sync.WaitGroup
	for i, queued := 0, 0; queued < n; i++ {
		key := fmt.Sprint("key-", i)
		if c.ring.owner(key) != 0 {
			continue
		}
		queued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, ok, _ := c.Resolve(key, req); ok {
				t.Error("a failing peer answered")
			}
		}()
	}
	for i := 0; i < slots; i++ {
		<-rt.arrived
	}
	for deadline := time.Now().Add(10 * time.Second); queuedDispatches() < n-slots; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d dispatches queued for a slot, want %d", queuedDispatches(), n-slots)
		}
	}
	close(rt.release)
	wg.Wait()

	if got, limit := rt.n.Load(), int64(failureLimit+slots-1); got > limit {
		t.Fatalf("failing peer received %d requests, want at most failureLimit+cap(sem)-1 = %d", got, limit)
	}
	if m := c.Metrics().PerPeer[0]; !m.CircuitOpen || m.Errors != uint64(rt.n.Load()) {
		t.Fatalf("peer metrics %+v after %d failed requests", m, rt.n.Load())
	}
}
