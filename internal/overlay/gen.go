package overlay

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/xrand"
)

// genTable generates node i's routing table per Algorithm 1 (§3.2) with the
// enhanced design's inclusion probability min(1, k/d) (§4.1); k=1 recovers
// the base design's 1/d. Entries are clockwise index distances, ascending.
//
// Each node draws from its own random stream derived from (overlay seed,
// refresh epoch, node index), so lazily and eagerly generated tables are
// identical and one node's table can be regenerated without touching the
// others. Epoch 0 is the original table.
func (o *Overlay) genTable(i int, epoch uint64) []int32 {
	rng := xrand.Derive(o.seed^(epoch*0x9e3779b97f4a7c15), uint64(i))
	if o.exact {
		return genTableExact(rng, o.n, o.k)
	}
	return genTableFast(rng, o.n, o.k)
}

// genTableExact is the literal Algorithm 1 loop: for every clockwise
// distance d in [1, N-1], include the sibling with probability min(1, k/d).
// O(N) per node; the reference implementation and test oracle.
func genTableExact(rng *rand.Rand, n, k int) []int32 {
	if n <= 1 {
		return nil
	}
	table := make([]int32, 0, expectedTableSize(n, k))
	for d := 1; d < n; d++ {
		if d <= k || rng.Float64()*float64(d) < float64(k) {
			table = append(table, int32(d))
		}
	}
	return table
}

// genTableFast draws the same distribution as genTableExact in
// O(k log N · log N) time via skip sampling.
//
// For d > k the inclusion events are independent Bernoulli(k/d). Given the
// last position j >= k, the probability that no distance in (j, t] is
// included telescopes to a falling-factorial ratio:
//
//	S(t) = Π_{s=j+1..t} (1 - k/s) = Π (s-k)/s = ff(j,k) / ff(t,k)
//
// where ff(x,k) = x·(x-1)···(x-k+1). Drawing U ~ Uniform(0,1), the next
// included distance is the smallest t with S(t) <= U, found by binary
// search on ln ff(t,k) (monotone in t). This is an exact inversion of the
// skip distribution, not an approximation; gen_test.go verifies the two
// generators agree statistically.
func genTableFast(rng *rand.Rand, n, k int) []int32 {
	if n <= 1 {
		return nil
	}
	table := make([]int32, 0, expectedTableSize(n, k))
	for d := 1; d <= k && d < n; d++ {
		table = append(table, int32(d))
	}
	lff := func(t int) float64 {
		var s float64
		for i := 0; i < k; i++ {
			s += math.Log(float64(t - i))
		}
		return s
	}
	j := k
	for j < n-1 {
		u := rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		// Smallest t > j with ln ff(t,k) >= target, i.e. S(t) <= u.
		target := lff(j) - math.Log(u)
		if lff(n-1) < target {
			break // no further inclusion before the ring ends
		}
		lo, hi := j+1, n-1
		for lo < hi {
			mid := lo + (hi-lo)/2
			if lff(mid) >= target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		table = append(table, int32(lo))
		j = lo
	}
	return table
}

// expectedTableSize estimates E[#entries] = k + Σ_{d=k+1..n-1} k/d
// ≈ k(1 + ln((n-1)/k)) to pre-size allocations.
func expectedTableSize(n, k int) int {
	if n <= 1 {
		return 0
	}
	e := float64(k) * (1 + math.Log(float64(n-1)/float64(k)))
	if e < 1 {
		e = 1
	}
	return int(e) + 4
}

// Entries runs Algorithm 1 standalone: it samples the routing-table
// clockwise distances for one node in an overlay of n members with
// redundancy k, drawing from rng. Live nodes (package node) use this to
// build their tables after learning (n, index) from their parent, exactly
// as the paper prescribes.
func Entries(rng *rand.Rand, n, k int) ([]int32, error) {
	if n < 1 {
		return nil, fmt.Errorf("overlay: entries n=%d, want >= 1", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("overlay: entries k=%d, want >= 1", k)
	}
	if n <= fastGenThreshold {
		return genTableExact(rng, n, k), nil
	}
	return genTableFast(rng, n, k), nil
}

// RegenerateTable rebuilds node i's routing table from a fresh random
// stream, modeling the periodic table refresh of §7 ("Overlay
// Maintenance"). epoch selects the refresh round; epoch 0 is the original
// table. Repair-created extras — merged into the old table — go with it,
// since a regenerated table reflects current membership.
func (o *Overlay) RegenerateTable(i int, epoch uint64) {
	o.setTable(i, o.genTable(i, epoch))
	delete(o.extras, int32(i))
}
