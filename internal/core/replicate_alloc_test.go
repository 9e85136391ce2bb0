package core_test

import (
	"runtime"
	"testing"

	"kafkadirect/internal/client"
	"kafkadirect/internal/sim"
)

// producedBatchAllocs produces acks=all batches over TCP to a partition with
// the given replication factor on a 3-broker cluster and returns the
// steady-state heap allocations per batch, measured after a warm-up so that
// pools and free lists are at working size.
func producedBatchAllocs(t *testing.T, rf int) float64 {
	t.Helper()
	r := newRig(t, 3, nil)
	if err := r.cl.CreateTopic("t", 1, rf); err != nil {
		t.Fatal(err)
	}
	const warmup = 200
	const measured = 1000
	var m0, m1 runtime.MemStats
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewTCPProducer(p, r.endpoint("cli"), "t", 0, -1, 1)
		if err != nil {
			t.Fatal(err)
		}
		recs := recordsOf(1, 100, 'r')
		for i := 0; i < warmup; i++ {
			if _, err := pr.Produce(p, recs...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < measured; i++ {
			if _, err := pr.Produce(p, recs...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
	})
	return float64(m1.Mallocs-m0.Mallocs) / measured
}

// TestPullReplicationSteadyStateAllocs pins the allocation cost of TCP pull
// replication (§4.3.1). With RF=3 and acks=all every produced batch is pulled
// by two replica fetchers, one long-poll fetch each. A fetcher encodes into a
// reused scratch buffer, decodes into one reused FetchResp and recycles each
// received frame to the wire-buffer pool. What remains per fetch is outside
// the fetcher: the modeled transport's two delivery closures per message in
// each direction and the leader's long-poll parking. The RF=1 run over the
// same cluster is the baseline that cancels the produce path's own
// allocations.
func TestPullReplicationSteadyStateAllocs(t *testing.T) {
	base := producedBatchAllocs(t, 1)
	repl := producedBatchAllocs(t, 3)
	perFetch := (repl - base) / 2
	t.Logf("RF=1 %.2f, RF=3 %.2f allocs per batch: %.2f per replica fetch", base, repl, perFetch)
	// 8 at steady state, 9 under the race detector (its sync.Pool drops a
	// share of Puts). A fetcher that allocates its request, frame, FetchResp
	// and Data on every fetch, and leaves frames unrecycled so the leader's
	// response copy misses the pool, costs 13.
	const maxPerFetch = 10
	if perFetch > maxPerFetch {
		t.Fatalf("pull replication costs %.2f allocs per replica fetch, want <= %d", perFetch, maxPerFetch)
	}
}
