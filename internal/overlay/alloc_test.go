package overlay

import (
	"testing"

	"repro/internal/xrand"
)

// TestRouteHealthyZeroAllocs pins the zero-allocation contract of the query
// hot path: routing through a healthy overlay with no trace and no load
// counter must not allocate at all. Every figure run issues millions of
// these routes, so a single stray allocation per hop shows up as GC time in
// whole-sweep profiles. The plan lives on Route's stack, not in a pool, so
// the pins hold under the race detector too.
func TestRouteHealthyZeroAllocs(t *testing.T) {
	o := mustNew(t, Config{N: 4096, K: 5, Seed: 9})
	rng := xrand.New(10)
	allocs := testing.AllocsPerRun(200, func() {
		src := rng.IntN(4096)
		od := rng.IntN(4096)
		if _, err := o.Route(src, od, RouteOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("healthy Route allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRouteLazyZeroAllocsSteadyState proves the lazy-table fast path is
// also allocation-free once the touched tables exist: the atomic load that
// replaced the generation check costs no allocation.
func TestRouteLazyZeroAllocsSteadyState(t *testing.T) {
	o := mustNew(t, Config{N: 4096, K: 5, Seed: 9, Lazy: true})
	rng := xrand.New(10)
	// Warm every table the measured routes can touch.
	warm := xrand.New(10)
	for i := 0; i < 400; i++ {
		if _, err := o.Route(warm.IntN(4096), warm.IntN(4096), RouteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.Route(rng.IntN(4096), rng.IntN(4096), RouteOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state lazy Route allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRouteAttackedZeroAllocs pins the attacked path: 30 % of the ring plus
// one 40-node block down and repaired, so tables hold merged repair
// entries, plans run deep into dead candidates, and walks turn backward
// and exit.
func TestRouteAttackedZeroAllocs(t *testing.T) {
	const n = 2000
	o := mustNew(t, Config{N: n, K: 5, Seed: 9})
	rng := xrand.New(11)
	var alive []int
	for i := 0; i < n; i++ {
		if i < 40 || rng.IntN(10) < 3 {
			o.SetAlive(i, false)
		} else {
			alive = append(alive, i)
		}
	}
	if stats := o.Repair(); stats.EntriesCreated == 0 {
		t.Fatal("repair created no entries; the pin would not cover merged extras")
	}
	var delivered, exited int
	allocs := testing.AllocsPerRun(500, func() {
		res, err := o.Route(alive[rng.IntN(len(alive))], rng.IntN(n), RouteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case Delivered:
			delivered++
		case Exited:
			exited++
		}
	})
	if allocs != 0 {
		t.Fatalf("attacked Route allocates %.1f objects per call, want 0", allocs)
	}
	if delivered == 0 || exited == 0 {
		t.Fatalf("%d deliveries, %d exits: want both under the pin", delivered, exited)
	}
}
