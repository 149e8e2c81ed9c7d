package routing

import (
	"math/rand"
	"testing"

	"repro/internal/idspace"
)

// testView builds an enhanced-design view with entries at the given index
// distances from self (ring size n), using the sim's self-origin embedding
// (self at identifier zero, distance d at FromUint64(d)).
func testView(n int, dists []int, withCCW bool) *View {
	v := &View{N: n, SelfIndex: 0, Design: Enhanced}
	for _, d := range dists {
		id := idspace.FromUint64(uint64(d))
		v.Entries = append(v.Entries, Entry{
			Peer:       Peer{Index: d % n},
			ID:         id,
			Dist:       id,
			HasNephews: true,
		})
	}
	if withCCW {
		id := idspace.FromUint64(uint64(n - 1))
		v.CCW = Entry{Peer: Peer{Index: n - 1}, ID: id, Dist: id}
		v.HasCCW = true
	}
	return v
}

func kinds(p *Plan) []StepKind {
	out := make([]StepKind, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.Kind
	}
	return out
}

// TestNextHopsODEntryExits: a view holding a usable entry for the OD plans
// exactly [OD, Nephew] — the walk ends at this node whether the OD answers
// (delivery) or not (exit), never routing past it.
func TestNextHopsODEntryExits(t *testing.T) {
	v := testView(64, []int{1, 2, 5, 9, 20}, true)
	var p Plan
	NextHops(v, idspace.FromUint64(9), false, &p)
	got := kinds(&p)
	if len(got) != 2 || got[0] != StepOD || got[1] != StepNephew {
		t.Fatalf("plan kinds = %v, want [StepOD StepNephew]", got)
	}
	if p.Steps[0].Entry != 3 || p.Steps[1].Entry != 3 {
		t.Fatalf("plan entries = %v, want the OD entry (3) twice", p.Steps)
	}
	if p.Blocked != BlockedNone {
		t.Fatalf("Blocked = %d, want BlockedNone", p.Blocked)
	}
}

// TestNextHopsNephewlessODEntry: an OD entry without nephews is not an
// exit — the plan tries the OD directly, then falls through to greedy and
// backward.
func TestNextHopsNephewlessODEntry(t *testing.T) {
	v := testView(64, []int{1, 2, 5, 9, 20}, true)
	v.Entries[3].HasNephews = false
	var p Plan
	NextHops(v, idspace.FromUint64(9), false, &p)
	got := kinds(&p)
	want := []StepKind{StepOD, StepGreedy, StepGreedy, StepGreedy, StepBackward}
	if len(got) != len(want) {
		t.Fatalf("plan kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan kinds = %v, want %v", got, want)
		}
	}
	// Greedy candidates are the entries strictly closer than the OD,
	// farthest first: distances 5, 2, 1.
	for i, wantEntry := range []int32{2, 1, 0} {
		if p.Steps[1+i].Entry != wantEntry {
			t.Fatalf("greedy step %d targets entry %d, want %d", i, p.Steps[1+i].Entry, wantEntry)
		}
	}
}

// TestNextHopsGreedyOrder: without an OD entry, candidates are planned
// farthest-first among those strictly before the OD.
func TestNextHopsGreedyOrder(t *testing.T) {
	v := testView(64, []int{1, 2, 5, 20}, true)
	var p Plan
	NextHops(v, idspace.FromUint64(9), false, &p)
	got := kinds(&p)
	want := []StepKind{StepGreedy, StepGreedy, StepGreedy, StepBackward}
	if len(got) != len(want) {
		t.Fatalf("plan kinds = %v, want %v", got, want)
	}
	if p.Steps[0].Entry != 2 || p.Steps[1].Entry != 1 || p.Steps[2].Entry != 0 {
		t.Fatalf("greedy order = %v, want entries [2 1 0]", p.Steps[:3])
	}
}

// TestNextHopsSuspicionRanking: suspects sort after clean candidates;
// within a suspicion level, distance descending still wins.
func TestNextHopsSuspicionRanking(t *testing.T) {
	v := testView(64, []int{1, 2, 5, 7}, true)
	v.Entries[3].Suspicion = 2 // farthest candidate, heavily suspect
	v.Entries[2].Suspicion = 1
	var p Plan
	NextHops(v, idspace.FromUint64(9), false, &p)
	// Expected greedy order: clean 2, clean 1, susp-1 dist-5, susp-2 dist-7.
	wantEntries := []int32{1, 0, 2, 3}
	if len(p.Steps) != 5 {
		t.Fatalf("plan = %v, want 4 greedy + backward", p.Steps)
	}
	for i, want := range wantEntries {
		s := p.Steps[i]
		if s.Kind != StepGreedy || s.Entry != want {
			t.Fatalf("step %d = %+v, want greedy entry %d", i, s, want)
		}
	}
}

// TestNextHopsBackwardSkipsGreedy: a query already in backward mode plans
// no greedy candidates.
func TestNextHopsBackwardSkipsGreedy(t *testing.T) {
	v := testView(64, []int{1, 2, 5}, true)
	var p Plan
	NextHops(v, idspace.FromUint64(9), true, &p)
	got := kinds(&p)
	if len(got) != 1 || got[0] != StepBackward {
		t.Fatalf("plan kinds = %v, want [StepBackward]", got)
	}
}

// TestNextHopsBlockReasons covers the three ways a plan ends without a
// backward step.
func TestNextHopsBlockReasons(t *testing.T) {
	// No CCW pointer.
	v := testView(64, []int{1, 2}, false)
	var p Plan
	NextHops(v, idspace.FromUint64(9), false, &p)
	if p.Blocked != BlockedNoCCW {
		t.Fatalf("Blocked = %d, want BlockedNoCCW", p.Blocked)
	}

	// CCW would wrap past the OD: CCW at distance 5, OD at 9 — from the
	// CCW the OD is 4 away, closer than our 9, so stepping backward can
	// never pass through an exit that we missed.
	v = testView(64, []int{1, 2}, true)
	ccwID := idspace.FromUint64(5)
	v.CCW = Entry{Peer: Peer{Index: 5}, ID: ccwID, Dist: ccwID}
	NextHops(v, idspace.FromUint64(9), false, &p)
	if p.Blocked != BlockedWrapped {
		t.Fatalf("Blocked = %d, want BlockedWrapped", p.Blocked)
	}
	for _, s := range p.Steps {
		if s.Kind == StepBackward {
			t.Fatalf("wrapped plan still contains a backward step: %v", p.Steps)
		}
	}

	// Base design: no backward mode at all.
	v = testView(64, []int{1, 2}, true)
	v.Design = Base
	NextHops(v, idspace.FromUint64(9), false, &p)
	if p.Blocked != BlockedNoBackwardMode {
		t.Fatalf("Blocked = %d, want BlockedNoBackwardMode", p.Blocked)
	}
}

// TestNextHopsBaseExitRule: in the base design only the immediate
// clockwise-neighbor entry (index distance 1) is a usable exit.
func TestNextHopsBaseExitRule(t *testing.T) {
	v := testView(64, []int{1, 9}, true)
	v.Design = Base
	for i := range v.Entries {
		v.Entries[i].Index = int(v.Entries[i].Dist.Uint64()) // self at index 0
	}
	var p Plan

	// OD at distance 9: entry exists but is not the CW neighbor — no exit.
	NextHops(v, idspace.FromUint64(9), false, &p)
	for _, s := range p.Steps {
		if s.Kind == StepNephew {
			t.Fatalf("base design planned a nephew exit for a distance-9 entry: %v", p.Steps)
		}
	}

	// OD at distance 1: the CW-neighbor entry is a usable exit.
	NextHops(v, idspace.FromUint64(1), false, &p)
	got := kinds(&p)
	if len(got) != 2 || got[0] != StepOD || got[1] != StepNephew {
		t.Fatalf("plan kinds = %v, want [StepOD StepNephew]", got)
	}
}

// TestRepairOrders checks both recovery rankings: the launch covers every
// entry farthest-first, and forwarding excludes the origin's own entry
// while keeping the suspicion-then-distance order.
func TestRepairOrders(t *testing.T) {
	v := testView(64, []int{1, 3, 8, 20}, true)
	v.Entries[3].Suspicion = 1
	var p Plan

	RepairLaunchOrder(v, &p)
	wantEntries := []int32{2, 1, 0, 3} // clean far-to-near, then the suspect
	if len(p.Steps) != len(wantEntries) {
		t.Fatalf("launch plan = %v, want %d steps", p.Steps, len(wantEntries))
	}
	for i, want := range wantEntries {
		if p.Steps[i].Entry != want {
			t.Fatalf("launch order = %v, want entries %v", p.Steps, wantEntries)
		}
	}

	// Origin at distance 8: its own entry (index 2) is excluded, as is
	// anything at or beyond it.
	RepairForwardOrder(v, idspace.FromUint64(8), &p)
	wantEntries = []int32{1, 0}
	if len(p.Steps) != len(wantEntries) {
		t.Fatalf("forward plan = %v, want %d steps", p.Steps, len(wantEntries))
	}
	for i, want := range wantEntries {
		if p.Steps[i].Entry != want {
			t.Fatalf("forward order = %v, want entries %v", p.Steps, wantEntries)
		}
	}
}

// TestRankingMatchesSelectionExtraction cross-checks the insertion-sort
// ranking against the obvious selection-extraction loop the kernel
// replaced, over random suspicion patterns.
func TestRankingMatchesSelectionExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		dists := make(map[int]bool)
		for len(dists) < n {
			dists[1+rng.Intn(1000)] = true
		}
		sorted := make([]int, 0, n)
		for d := range dists {
			sorted = append(sorted, d)
		}
		for i := 1; i < len(sorted); i++ { // insertion sort the test input
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		v := testView(2000, sorted, false)
		for i := range v.Entries {
			if rng.Intn(2) == 0 {
				v.Entries[i].Suspicion = rng.Intn(4)
			}
		}

		var p Plan
		RepairLaunchOrder(v, &p)

		// Reference: repeatedly extract the (lowest suspicion, largest
		// distance) candidate — the loop previously duplicated in
		// overlayForward, MaintainOnce, and handleRepair.
		type cand struct {
			entry int
			d     idspace.ID
			susp  int
		}
		cands := make([]cand, 0, n)
		for i, e := range v.Entries {
			cands = append(cands, cand{entry: i, d: e.Dist, susp: e.Suspicion})
		}
		var want []int
		for len(cands) > 0 {
			best := 0
			for i := range cands {
				if cands[i].susp < cands[best].susp ||
					(cands[i].susp == cands[best].susp && cands[i].d.Compare(cands[best].d) > 0) {
					best = i
				}
			}
			want = append(want, cands[best].entry)
			cands = append(cands[:best], cands[best+1:]...)
		}

		if len(p.Steps) != len(want) {
			t.Fatalf("trial %d: got %d steps, want %d", trial, len(p.Steps), len(want))
		}
		for i := range want {
			if int(p.Steps[i].Entry) != want[i] {
				t.Fatalf("trial %d: rank %d = entry %d, want %d", trial, i, p.Steps[i].Entry, want[i])
			}
		}
	}
}

// TestNextHopsZeroAllocs pins the kernel's zero-allocation contract: plan
// construction with a reused Plan must not touch the heap, on the healthy
// path and under suspicion alike.
func TestNextHopsZeroAllocs(t *testing.T) {
	v := testView(4096, []int{1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1025}, true)
	od := idspace.FromUint64(700)
	var p Plan
	NextHops(v, od, false, &p) // warm the plan's step storage
	if n := testing.AllocsPerRun(200, func() {
		NextHops(v, od, false, &p)
	}); n != 0 {
		t.Fatalf("NextHops (healthy) allocates %v per run, want 0", n)
	}

	for i := range v.Entries {
		v.Entries[i].Suspicion = i % 3
	}
	if n := testing.AllocsPerRun(200, func() {
		NextHops(v, od, false, &p)
	}); n != 0 {
		t.Fatalf("NextHops (suspect-heavy) allocates %v per run, want 0", n)
	}

	RepairLaunchOrder(v, &p)
	if n := testing.AllocsPerRun(200, func() {
		RepairLaunchOrder(v, &p)
	}); n != 0 {
		t.Fatalf("RepairLaunchOrder allocates %v per run, want 0", n)
	}
}

// simLocus locates an OD at index distance odd the way the simulator does:
// on a node's sorted int32 index distances, with the counter-clockwise
// pointer given as its clockwise index distance from self (0: none) on a
// ring of n.
func simLocus(dists []int32, odd int32, exit func(i int) bool, ccw, n int32) Locus {
	at := Locus{}
	for at.Closer < len(dists) && dists[at.Closer] < odd {
		at.Closer++
	}
	if at.Closer < len(dists) && dists[at.Closer] == odd {
		at.HasOD = true
		at.Exit = exit(at.Closer)
	}
	if ccw != 0 {
		at.CCW = CCWOK
		if (odd-ccw+n)%n <= odd {
			at.CCW = CCWWraps
		}
	}
	return at
}

// TestLocatorsAgree ties the kernel's two producers together: for random
// tables, NextHops on the FromUint64-embedded View (the live node's
// 160-bit locator) and Decide on the simulator's integer Locus yield the
// identical plan and block reason — across OD positions (in the table,
// between entries, beyond the last entry, the clockwise neighbor), CCW
// pointers (none, progressing, wrapping), both designs, both modes and
// random suspicion. Together with overlay's TestRouteKernelDifferential
// this is what lets the sim skip building a View.
func TestLocatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	seenKind, seenBlocked := map[StepKind]int{}, map[BlockReason]int{}
	for trial := 0; trial < 3000; trial++ {
		n := 3 + rng.Intn(4000)
		var dists []int32
		var asInts []int
		for d := 1; d < n; d++ {
			if d == 1 && rng.Intn(4) > 0 || rng.Intn(d) < 3 {
				dists = append(dists, int32(d))
				asInts = append(asInts, d)
			}
		}
		v := testView(n, asInts, false)
		if rng.Intn(2) == 0 {
			v.Design = Base
		}
		allClean := rng.Intn(3) == 0
		for i := range v.Entries {
			if !allClean && rng.Intn(3) == 0 {
				v.Entries[i].Suspicion = rng.Intn(4)
			}
			v.Entries[i].HasNephews = rng.Intn(8) > 0
		}
		exit := func(i int) bool {
			if v.Design == Base {
				return dists[i] == 1
			}
			return v.Entries[i].HasNephews
		}

		odd := int32(1 + rng.Intn(n-1))
		switch rng.Intn(4) {
		case 0:
			if len(dists) > 0 {
				odd = dists[rng.Intn(len(dists))]
			}
		case 1:
			if last := int32(len(dists)); last > 0 && dists[last-1] < int32(n-1) {
				odd = dists[last-1] + 1 + int32(rng.Intn(n-1-int(dists[last-1])))
			}
		case 2:
			odd = 1
		}
		var ccw int32
		switch rng.Intn(3) {
		case 1: // progressing: strictly beyond the OD going clockwise
			if odd < int32(n-1) {
				ccw = odd + 1 + int32(rng.Intn(n-1-int(odd)))
			}
		case 2: // wrapping: at or before the OD
			ccw = 1 + int32(rng.Intn(int(odd)))
		}
		if ccw != 0 {
			id := idspace.FromUint64(uint64(ccw))
			v.CCW = Entry{Peer: Peer{Index: int(ccw)}, ID: id, Dist: id}
			v.HasCCW = true
		}
		backward := rng.Intn(3) == 0

		var want Plan
		NextHops(v, idspace.FromUint64(uint64(odd)), backward, &want)
		at := simLocus(dists, odd, exit, ccw, int32(n))
		susp := v.Entries
		if allClean && trial%2 == 0 {
			susp = nil // the simulator's form of "every entry is clean"
		}
		got, blocked := Decide(v.Design, at, backward, susp, nil)
		seenBlocked[blocked]++
		for _, st := range got {
			seenKind[st.Kind]++
		}
		if blocked != want.Blocked || len(got) != len(want.Steps) {
			t.Fatalf("trial %d (n=%d od=%d ccw=%d %+v): Decide = %v blocked %d, NextHops = %v blocked %d",
				trial, n, odd, ccw, at, got, blocked, want.Steps, want.Blocked)
		}
		for i := range got {
			if got[i] != want.Steps[i] {
				t.Fatalf("trial %d (n=%d od=%d ccw=%d %+v): Decide = %v, NextHops = %v",
					trial, n, odd, ccw, at, got, want.Steps)
			}
		}
	}
	for k := StepOD; k <= StepBackward; k++ {
		if seenKind[k] == 0 {
			t.Errorf("no trial planned step kind %d", k)
		}
	}
	for b := BlockedNone; b <= BlockedWrapped; b++ {
		if seenBlocked[b] == 0 {
			t.Errorf("no trial ended with block reason %d", b)
		}
	}
}
