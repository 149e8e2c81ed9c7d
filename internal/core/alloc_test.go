package core

import (
	"testing"

	"repro/internal/xrand"
)

// TestQueryNodeSteadyStateAllocs pins the allocation budget of the
// end-to-end query hot path. After the first query has warmed the path
// cache and the pooled query-run bookkeeping, a healthy query (no trace, no
// load tracking) must stay within a fixed low bound — the steady state is
// designed to allocate nothing, with one unit of slack because a GC pass
// during measurement can empty the sync.Pool.
func TestQueryNodeSteadyStateAllocs(t *testing.T) {
	tr := buildTree(t, 64, 12, 3)
	s := buildSystem(t, tr, Config{K: 5, Seed: 30})
	dst, ok := tr.Lookup("l3-1.l2-7.l1-42")
	if !ok {
		t.Fatal("lookup failed")
	}
	rng := xrand.New(31)
	// Warm-up: build overlay states, the PathFromRoot cache, and the pool.
	for i := 0; i < 16; i++ {
		if _, err := s.QueryNode(dst, QueryOptions{Rng: rng}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.QueryNode(dst, QueryOptions{Rng: rng}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state QueryNode allocates %.1f objects per call, want <= 1", allocs)
	}
}

// TestQueryNodeUnderAttackAllocs pins the attacked path too: with the
// level-1 ancestor down, every query detours through the sibling overlay,
// stops at an exit node and descends by a memoized nephew pointer — all on
// ring indices, without per-query garbage once the nephew memo is warm.
func TestQueryNodeUnderAttackAllocs(t *testing.T) {
	tr := buildTree(t, 64, 12, 3)
	s := buildSystem(t, tr, Config{K: 5, Seed: 32})
	mid, ok := tr.Lookup("l1-42")
	if !ok {
		t.Fatal("lookup failed")
	}
	s.SetAlive(mid, false)
	s.Repair()
	dst, ok := tr.Lookup("l3-1.l2-7.l1-42")
	if !ok {
		t.Fatal("lookup failed")
	}
	rng := xrand.New(33)
	// Warm-up: every alive level-1 node that can become the exit fills its
	// nephew memo (a miss derives a fresh RNG and allocates the picks).
	for i := 0; i < 2048; i++ {
		if _, err := s.QueryNode(dst, QueryOptions{Rng: rng}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		res, err := s.QueryNode(dst, QueryOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != QueryDelivered || res.NephewHops != 1 {
			t.Fatalf("query = %+v, want a delivery through one nephew exit", res)
		}
	})
	if allocs != 0 {
		t.Fatalf("exit-via-nephew QueryNode allocates %.1f objects per call, want 0", allocs)
	}
}
