package overlay

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func mustNew(t testing.TB, cfg Config) *Overlay {
	t.Helper()
	o, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return o
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0},
		{N: -5},
		{N: 10, K: -1},
		{N: 10, Design: Design(99)},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error", cfg)
		}
	}
}

func TestDefaults(t *testing.T) {
	o := mustNew(t, Config{N: 10})
	if o.Design() != Enhanced {
		t.Errorf("default design = %v, want enhanced", o.Design())
	}
	if o.K() != 1 {
		t.Errorf("default k = %d, want 1", o.K())
	}
	o2 := mustNew(t, Config{N: 10, Design: Base, K: 7})
	if o2.K() != 1 {
		t.Errorf("base design k = %d, want forced 1", o2.K())
	}
}

func TestDesignString(t *testing.T) {
	if Base.String() != "base" || Enhanced.String() != "enhanced" {
		t.Error("Design.String() wrong for named designs")
	}
	if Design(42).String() == "" {
		t.Error("unknown design should still render")
	}
}

// Every node must surely point to its k clockwise neighbors (d <= k has
// inclusion probability 1), and all entries must be sorted, distinct, and
// in range.
func TestTableStructuralInvariants(t *testing.T) {
	for _, tc := range []struct {
		design Design
		k      int
	}{{Base, 1}, {Enhanced, 1}, {Enhanced, 5}, {Enhanced, 10}} {
		o := mustNew(t, Config{N: 300, Design: tc.design, K: tc.k, Seed: 1})
		for i := 0; i < o.Size(); i++ {
			tab := o.Table(i)
			for want := 1; want <= o.K(); want++ {
				if !containsSorted(tab, int32(want)) {
					t.Fatalf("%v k=%d: node %d missing sure entry at distance %d", tc.design, tc.k, i, want)
				}
			}
			for j := range tab {
				if tab[j] < 1 || int(tab[j]) >= o.Size() {
					t.Fatalf("node %d entry %d out of range", i, tab[j])
				}
				if j > 0 && tab[j] <= tab[j-1] {
					t.Fatalf("node %d table not strictly sorted: %v", i, tab)
				}
			}
		}
	}
}

func TestTableMeanSizeMatchesAnalysis(t *testing.T) {
	// E[entries] = k + sum_{d=k+1}^{n-1} k/d.
	for _, k := range []int{1, 5} {
		const n = 5000
		o := mustNew(t, Config{N: n, Design: Enhanced, K: k, Seed: 7})
		var total float64
		for i := 0; i < n; i++ {
			total += float64(o.TableSize(i))
		}
		mean := total / n
		want := float64(k)
		for d := k + 1; d < n; d++ {
			want += float64(k) / float64(d)
		}
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("k=%d: mean table size %.3f, analysis %.3f", k, mean, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustNew(t, Config{N: 500, K: 3, Seed: 42})
	b := mustNew(t, Config{N: 500, K: 3, Seed: 42})
	for i := 0; i < 500; i++ {
		ta, tb := a.Table(i), b.Table(i)
		if len(ta) != len(tb) {
			t.Fatalf("node %d: table sizes differ", i)
		}
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("node %d entry %d differs: %d vs %d", i, j, ta[j], tb[j])
			}
		}
	}
	c := mustNew(t, Config{N: 500, K: 3, Seed: 43})
	diff := 0
	for i := 0; i < 500; i++ {
		if len(a.Table(i)) != len(c.Table(i)) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical table-size profile")
	}
}

func TestLazyEqualsEager(t *testing.T) {
	eager := mustNew(t, Config{N: 400, K: 4, Seed: 9})
	lazy := mustNew(t, Config{N: 400, K: 4, Seed: 9, Lazy: true})
	for _, i := range []int{0, 13, 200, 399} {
		te, tl := eager.Table(i), lazy.Table(i)
		if len(te) != len(tl) {
			t.Fatalf("node %d: lazy table size %d, eager %d", i, len(tl), len(te))
		}
		for j := range te {
			if te[j] != tl[j] {
				t.Fatalf("node %d entry %d: lazy %d, eager %d", i, j, tl[j], te[j])
			}
		}
	}
}

// The fast skip sampler must draw the same distribution as the literal
// Algorithm 1 loop: compare mean table size and per-distance inclusion
// frequencies over many independent tables.
func TestFastGenMatchesExactGen(t *testing.T) {
	const (
		n      = 2000
		k      = 3
		trials = 4000
	)
	countInclusions := func(gen func(i int) []int32) (meanSize float64, freq map[int]float64) {
		freq = make(map[int]float64)
		probe := []int{k + 1, 10, 50, 500, 1999}
		var total int
		for i := 0; i < trials; i++ {
			tab := gen(i)
			total += len(tab)
			for _, d := range probe {
				if containsSorted(tab, int32(d)) {
					freq[d]++
				}
			}
		}
		for _, d := range probe {
			freq[d] /= trials
		}
		return float64(total) / trials, freq
	}
	exactMean, exactFreq := countInclusions(func(i int) []int32 {
		return genTableExact(xrand.Derive(1, uint64(i)), n, k)
	})
	fastMean, fastFreq := countInclusions(func(i int) []int32 {
		return genTableFast(xrand.Derive(2, uint64(i)), n, k)
	})
	if math.Abs(exactMean-fastMean) > 0.05*exactMean {
		t.Errorf("mean size: exact %.3f vs fast %.3f", exactMean, fastMean)
	}
	for d, ef := range exactFreq {
		ff := fastFreq[d]
		want := math.Min(1, float64(k)/float64(d))
		// Binomial stderr at trials=4000 is < 0.008; allow 4 sigma plus
		// slack.
		tol := 4*math.Sqrt(want*(1-want)/trials) + 0.01
		if math.Abs(ef-want) > tol {
			t.Errorf("exact inclusion at d=%d: %.4f, want %.4f±%.4f", d, ef, want, tol)
		}
		if math.Abs(ff-want) > tol {
			t.Errorf("fast inclusion at d=%d: %.4f, want %.4f±%.4f", d, ff, want, tol)
		}
	}
}

func TestFastGenSmallRings(t *testing.T) {
	// Degenerate sizes must not panic and must keep sure entries.
	for n := 1; n <= 12; n++ {
		for _, k := range []int{1, 2, 5} {
			tab := genTableFast(xrand.New(uint64(n*100+k)), n, k)
			for d := 1; d <= k && d < n; d++ {
				if !containsSorted(tab, int32(d)) {
					t.Errorf("n=%d k=%d: missing sure entry %d (table %v)", n, k, d, tab)
				}
			}
			for _, d := range tab {
				if d < 1 || int(d) >= n {
					t.Errorf("n=%d k=%d: entry %d out of range", n, k, d)
				}
			}
		}
	}
}

func TestRegenerateTable(t *testing.T) {
	o := mustNew(t, Config{N: 1000, K: 2, Seed: 5})
	before := append([]int32(nil), o.Table(7)...)
	o.addExtraEntry(7, 500)
	if o.ExtraEntries(7) != 1 {
		t.Fatal("extra entry not recorded")
	}
	o.RegenerateTable(7, 1)
	after := o.Table(7)
	if o.ExtraEntries(7) != 0 {
		t.Error("regeneration kept repair extras")
	}
	same := len(before) == len(after)
	if same {
		for i := range before {
			if before[i] != after[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("regeneration with a new epoch produced an identical table (astronomically unlikely)")
	}
	// Sure entries survive regeneration.
	for d := 1; d <= o.K(); d++ {
		if !containsSorted(after, int32(d)) {
			t.Errorf("regenerated table missing sure entry %d", d)
		}
	}
	// Epoch 0 restores the original table.
	o.RegenerateTable(7, 0)
	restored := o.Table(7)
	if len(restored) != len(before) {
		t.Fatalf("epoch-0 regeneration size %d, want %d", len(restored), len(before))
	}
	for i := range before {
		if restored[i] != before[i] {
			t.Fatal("epoch-0 regeneration did not restore the original table")
		}
	}
}

// Property: for arbitrary (n, k, seed), generated tables obey structural
// invariants under both generators.
func TestGenProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint16) bool {
		n := int(nRaw%800) + 2
		k := int(kRaw%8) + 1
		for _, gen := range []func() []int32{
			func() []int32 { return genTableExact(xrand.New(seed), n, k) },
			func() []int32 { return genTableFast(xrand.New(seed), n, k) },
		} {
			tab := gen()
			for j, d := range tab {
				if d < 1 || int(d) >= n {
					return false
				}
				if j > 0 && tab[j] <= tab[j-1] {
					return false
				}
			}
			for d := 1; d <= k && d < n; d++ {
				if !containsSorted(tab, int32(d)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHasEntryAndExtras(t *testing.T) {
	o := mustNew(t, Config{N: 100, K: 2, Seed: 3})
	if o.HasEntry(5, 5) {
		t.Error("HasEntry(i, i) should be false")
	}
	if !o.HasEntry(5, 6) || !o.HasEntry(5, 7) {
		t.Error("sure clockwise neighbors missing from HasEntry")
	}
	if o.HasEntry(5, 80) {
		// Possible but unlikely (prob 2/75); if this seed has it, pick
		// another target for the negative case.
		if o.HasEntry(5, 81) && o.HasEntry(5, 82) && o.HasEntry(5, 83) {
			t.Error("implausibly dense table suggests HasEntry bug")
		}
	}
	o.addExtraEntry(5, 80)
	if !o.HasEntry(5, 80) {
		t.Error("extra entry not visible via HasEntry")
	}
	o.addExtraEntry(5, 80) // idempotent
	if o.ExtraEntries(5) != 1 {
		t.Errorf("duplicate extra entries: %d", o.ExtraEntries(5))
	}
	tab := o.Table(5)
	if !containsSorted(tab, int32(75)) {
		t.Error("Table() does not include extras (distance 75 = 80-5)")
	}
}

// TestTableStaysSortedAndDeduped drives eager and lazy overlays through
// every mutation and checks, after each, the invariant routing and repair
// binary-search on: every node's table is strictly ascending within
// [1, N-1], and holds exactly Algorithm 1's entries plus the ExtraEntries
// that recovery recorded for the node.
func TestTableStaysSortedAndDeduped(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		cfg := Config{N: 300, K: 3, Seed: 21, Lazy: lazy}
		o, pristine := mustNew(t, cfg), mustNew(t, cfg)
		rng := xrand.New(22)
		check := func(after string) {
			t.Helper()
			for i := 0; i < cfg.N; i++ {
				tab := o.Table(i)
				for j, d := range tab {
					if d < 1 || int(d) >= cfg.N || j > 0 && tab[j-1] >= d {
						t.Fatalf("lazy=%v after %s: node %d table %v is not strictly ascending in [1,N)", lazy, after, i, tab)
					}
				}
				if want := pristine.TableSize(i) + o.ExtraEntries(i); len(tab) != want || o.TableSize(i) != want {
					t.Fatalf("lazy=%v after %s: node %d holds %d entries (TableSize %d), want %d generated + %d extra",
						lazy, after, i, len(tab), o.TableSize(i), pristine.TableSize(i), o.ExtraEntries(i))
				}
			}
		}
		check("New")
		for round := uint64(1); round <= 4; round++ {
			for i := 0; i < cfg.N; i++ {
				o.SetAlive(i, rng.IntN(10) >= 3)
			}
			start := rng.IntN(cfg.N)
			for d := 0; d < 12; d++ {
				o.SetAlive((start+d)%cfg.N, false)
			}
			check("SetAlive")
			if round%2 == 0 {
				o.BridgeGapsIdeal()
				check("BridgeGapsIdeal")
			}
			o.Repair()
			check("Repair")
			o.Stabilize(0)
			check("Stabilize")
			i, j := rng.IntN(cfg.N), rng.IntN(cfg.N)
			o.addExtraEntry(i, j)
			o.addExtraEntry(i, j)
			check("addExtraEntry")
			o.RegenerateTable(i, round)
			pristine.RegenerateTable(i, round)
			check("RegenerateTable")
		}
	}
}

func TestSetAlive(t *testing.T) {
	o := mustNew(t, Config{N: 10, Seed: 1})
	if o.AliveCount() != 10 {
		t.Fatalf("initial alive count %d", o.AliveCount())
	}
	o.SetAlive(3, false)
	o.SetAlive(3, false) // idempotent
	if o.Alive(3) || o.AliveCount() != 9 {
		t.Errorf("after kill: alive=%v count=%d", o.Alive(3), o.AliveCount())
	}
	o.SetAlive(3, true)
	if !o.Alive(3) || o.AliveCount() != 10 {
		t.Errorf("after revive: alive=%v count=%d", o.Alive(3), o.AliveCount())
	}
}

func TestNearestAlive(t *testing.T) {
	o := mustNew(t, Config{N: 10, Seed: 1})
	o.SetAlive(4, false)
	o.SetAlive(3, false)
	if got := o.NearestAliveCCW(5); got != 2 {
		t.Errorf("NearestAliveCCW(5) = %d, want 2", got)
	}
	if got := o.NearestAliveCW(2); got != 5 {
		t.Errorf("NearestAliveCW(2) = %d, want 5", got)
	}
	for i := 0; i < 10; i++ {
		if i != 5 {
			o.SetAlive(i, false)
		}
	}
	if got := o.NearestAliveCCW(5); got != -1 {
		t.Errorf("lone survivor NearestAliveCCW = %d, want -1", got)
	}
	if got := o.NearestAliveCW(5); got != -1 {
		t.Errorf("lone survivor NearestAliveCW = %d, want -1", got)
	}
}

func BenchmarkGenTableExact50k(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		_ = genTableExact(rng, 50000, 5)
	}
}

func BenchmarkGenTableFast50k(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		_ = genTableFast(rng, 50000, 5)
	}
}

func BenchmarkGenTableFast2M(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		_ = genTableFast(rng, 2_000_000, 5)
	}
}
