// Package routing is the transport-agnostic HOURS routing kernel: the
// forwarding discipline of Algorithms 2 and 3 (paper §3.3, §4.2) and the
// candidate ranking of the §4.3 active-recovery protocol, as pure
// functions.
//
// Both the simulator (internal/overlay) and the live node (internal/node)
// consume this package, so the tree holds exactly one implementation of
// the greedy/nephew/backward decision (Decide) and one implementation of
// the suspicion-aware candidate ranking (RankTo). The decision is split in
// two. Locating — where the overlay destination falls in a node's sorted
// table — is the producer's job, in the producer's own metric: the live
// node publishes a View, a value snapshot of its local routing state keyed
// by 160-bit identifiers, and NextHops locates in it; the simulator locates
// in its int32 index distances and builds no View at all. Deciding is
// key-free: Decide turns the positional Locus into a ranked Plan. The
// kernel never mutates its inputs, performs I/O, or consults clocks:
// callers decide liveness by attempting the planned hops in order.
//
// All functions are allocation-free when the caller reuses the plan's
// storage: the hot query path loads a published view and builds its plan
// with zero locks and zero heap traffic (pinned by tests and the
// BENCH_routing gate in check.sh).
package routing

import "repro/internal/idspace"

// Design selects between the paper's two pointer-placement schemes. The
// values mirror internal/overlay.Design.
type Design uint8

const (
	// Base is the §3 design: no backward mode, and only the immediate
	// clockwise-neighbor entry (index distance 1) carries nephews.
	Base Design = iota + 1
	// Enhanced is the §4 design: every table entry carries nephews and a
	// counter-clockwise pointer enables backward forwarding.
	Enhanced
)

// Peer identifies a remote node a plan step may forward to. Suspicion is
// the consecutive-failure count snapshotted into the view when it was
// published, so ranking and trace attributes need no lock at decision
// time.
type Peer struct {
	Index     int
	Name      string
	Addr      string
	Suspicion int
}

// Entry is one routing-table row of the view: a sibling pointer plus its
// nephew pointers (§4.1). Dist is the clockwise identifier-space distance
// from the view's self to the entry, the quantity every Algorithm 2/3
// comparison is defined on.
type Entry struct {
	Peer
	ID   idspace.ID
	Dist idspace.ID
	// HasNephews marks the entry as a usable exit in the enhanced design:
	// a nephew-less entry (e.g. created by repair while its target was
	// already down) cannot bridge into the next-level overlay.
	HasNephews bool
	Nephews    []Peer
}

// View is one node's immutable local routing state. Producers build a
// fresh View for every state transition and publish it whole (the live
// node uses an atomic.Pointer); consumers treat it as read-only. Entries
// must be sorted ascending by Dist and hold no duplicates.
type View struct {
	// N is the overlay size; SelfIndex the node's ring index. N <= 0 or
	// SelfIndex < 0 means the node is not an overlay member yet.
	N         int
	SelfIndex int
	SelfID    idspace.ID
	Design    Design
	Entries   []Entry
	// CCW is the counter-clockwise pointer (§4.2); meaningful only when
	// HasCCW is set.
	CCW    Entry
	HasCCW bool
}

// Ready reports whether the view describes an overlay member that can
// make forwarding decisions.
func (v *View) Ready() bool { return v.N > 0 && v.SelfIndex >= 0 }

// StepKind classifies one planned forwarding attempt.
type StepKind uint8

const (
	// StepOD forwards to the overlay-destination node itself via its
	// direct table entry (Algorithm 3 lines 1-3).
	StepOD StepKind = iota + 1
	// StepNephew marks the self node as the exit: the OD entry is usable
	// and the OD node did not answer, so forwarding descends through the
	// entry's nephews (Algorithm 3 lines 4-7). A plan never continues
	// past this step.
	StepNephew
	// StepGreedy forwards to a table entry strictly closer to the OD
	// node, best candidates first (Algorithm 2 line 10 / Algorithm 3
	// line 11, suspicion-ranked).
	StepGreedy
	// StepBackward follows the counter-clockwise pointer (Algorithm 3
	// lines 12-19).
	StepBackward
)

// Step is one planned hop attempt. Entry indexes the table the plan was
// located in (View.Entries for NextHops) for StepOD/StepNephew/StepGreedy
// and is -1 for StepBackward (the target is the counter-clockwise pointer).
type Step struct {
	Kind  StepKind
	Entry int32
}

// BlockReason explains why a plan ends without a backward step.
type BlockReason uint8

const (
	// BlockedNone: the plan ends in a backward step, or in a nephew exit
	// that makes the question moot.
	BlockedNone BlockReason = iota
	// BlockedNoBackwardMode: the base design has no backward mode (§3.4);
	// a query whose greedy candidates are exhausted is stuck.
	BlockedNoBackwardMode
	// BlockedNoCCW: no usable counter-clockwise pointer.
	BlockedNoCCW
	// BlockedWrapped: the counter-clockwise pointer is not strictly
	// farther from the OD node than self — a backward step would wrap
	// past the OD, proving the ring holds no exit entry.
	BlockedWrapped
)

// Plan is a ranked list of forwarding attempts. Executors try steps in
// order, taking the first one whose target answers; a plan exhausted
// without an answer is a routing failure whose cause Blocked names.
// Reusing one Plan across calls keeps the kernel allocation-free.
type Plan struct {
	Steps   []Step
	Blocked BlockReason
}

// Target returns the entry a step forwards to.
func (v *View) Target(s Step) *Entry {
	if s.Kind == StepBackward {
		return &v.CCW
	}
	return &v.Entries[s.Entry]
}

// CCWStep says what following the counter-clockwise pointer would do for
// the query being located.
type CCWStep uint8

const (
	// CCWNone: no usable counter-clockwise pointer.
	CCWNone CCWStep = iota
	// CCWOK: the pointer's target is strictly farther from the OD node
	// than self, so a backward step makes progress.
	CCWOK
	// CCWWraps: the step would wrap past the OD node.
	CCWWraps
)

// Locus is where a query's overlay destination falls in one node's sorted
// table, stated positionally so the decision needs no identifiers. Each
// producer locates in its own metric — the live node on 160-bit distances
// (View.locate), the simulator on int32 index distances — and Decide turns
// the locus into a plan.
type Locus struct {
	// Closer is the number of entries strictly closer than the OD node:
	// the greedy candidates are entries [0, Closer).
	Closer int
	// HasOD: entry Closer is the OD node's own. Exit: it also qualifies
	// self as an exit node for a dead OD — any entry with nephews in the
	// enhanced design (§4.1), only the immediate clockwise neighbor in
	// the base design (§3.1).
	HasOD, Exit bool
	CCW         CCWStep
}

// lowerBound returns the index of the first entry with Dist >= bound.
func (v *View) lowerBound(bound idspace.ID) int {
	lo, hi := 0, len(v.Entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.Entries[mid].Dist.Compare(bound) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// locate finds the OD identifier's locus in the view. One binary search
// serves both decisions: the greedy bound and, when the entry there sits
// exactly at the OD's distance, the OD's own table entry.
func (v *View) locate(od idspace.ID) Locus {
	odDist := idspace.Distance(v.SelfID, od)
	at := Locus{Closer: v.lowerBound(odDist)}
	if at.Closer < len(v.Entries) && v.Entries[at.Closer].Dist == odDist {
		at.HasOD = true
		if v.Design == Base {
			at.Exit = idspace.IndexDist(v.SelfIndex, v.Entries[at.Closer].Index, v.N) == 1
		} else {
			at.Exit = v.Entries[at.Closer].HasNephews
		}
	}
	if v.HasCCW {
		at.CCW = CCWOK
		if idspace.Distance(v.CCW.ID, od).Compare(odDist) <= 0 {
			at.CCW = CCWWraps
		}
	}
	return at
}

// NextHops builds the ranked forwarding plan for a query whose overlay
// destination sits at identifier od: Decide at the view's locus for od,
// ranked by the entries' suspicion. The plan is written into p, whose
// storage is reused.
func NextHops(v *View, od idspace.ID, backward bool, p *Plan) {
	p.Steps, p.Blocked = Decide(v.Design, v.locate(od), backward, v.Entries, p.Steps[:0])
}

// Decide is the one forwarding rule of Algorithms 2 and 3, key-free: the
// direct OD entry first, then — if that entry is a usable exit — the
// nephew descent that ends the walk, otherwise the greedy candidates
// (skipped once the query is in backward mode) and finally the backward
// step. Step.Entry indexes the table at was located in; susp supplies the
// per-entry suspicion the greedy ranking reads (nil: every entry is clean).
// The plan is appended to steps and returned by value, so a caller can
// keep it on its own stack.
func Decide(design Design, at Locus, backward bool, susp []Entry, steps []Step) ([]Step, BlockReason) {
	// Algorithm 3 lines 1-7: the OD node is in the routing table. If the
	// entry is a usable exit, the plan ends here — a dead OD makes self
	// the exit node, and there is nothing to route past it.
	if at.HasOD {
		steps = append(steps, Step{Kind: StepOD, Entry: int32(at.Closer)})
		if at.Exit {
			return append(steps, Step{Kind: StepNephew, Entry: int32(at.Closer)}), BlockedNone
		}
	}

	// Greedy clockwise (Algorithm 2 line 10 / Algorithm 3 line 11):
	// entries strictly closer to the OD, suspicion-ranked. A query
	// already walking backward never resumes greedy forwarding.
	if !backward {
		steps = RankTo(susp, at.Closer, steps)
	}

	switch {
	case design == Base:
		return steps, BlockedNoBackwardMode
	case at.CCW == CCWNone:
		return steps, BlockedNoCCW
	case at.CCW == CCWWraps:
		return steps, BlockedWrapped
	}
	return append(steps, Step{Kind: StepBackward, Entry: -1}), BlockedNone
}

// RepairForwardOrder ranks the candidates for forwarding a §4.3 Repair
// message originated at identifier origin: every entry strictly closer
// to the origin than self (the origin's own entry excluded), suspicion
// first, farthest-reaching next — a repair races the very failure it is
// fixing, so first attempts go to peers with a clean record.
func RepairForwardOrder(v *View, origin idspace.ID, p *Plan) {
	n := v.lowerBound(idspace.Distance(v.SelfID, origin))
	p.Steps, p.Blocked = RankTo(v.Entries, n, p.Steps[:0]), BlockedNone
}

// RepairLaunchOrder ranks every table entry for launching a self-originated
// §4.3 Repair clockwise around the full circle: farthest-reaching first
// within each suspicion level.
func RepairLaunchOrder(v *View, p *Plan) {
	p.Steps, p.Blocked = RankTo(v.Entries, len(v.Entries), p.Steps[:0]), BlockedNone
}

// RankTo appends one StepGreedy per entry in the table prefix [0, n) the
// caller bounded, ordered by (suspicion ascending, distance descending),
// and returns the extended steps. This is the tree's one implementation of
// the Algorithm 2/3 candidate-ranking loop: greedy forwarding ranks the
// entries closer than the OD, a repair forward those closer than the
// origin, a repair launch the whole table. susp is as in Decide.
//
// Entries are sorted ascending by distance, so planning from the far end
// yields descending distance for free; until the first suspected entry is
// planned nothing can be out of order, and after it only entries with
// strictly higher suspicion are displaced toward the back.
func RankTo(susp []Entry, n int, steps []Step) []Step {
	start := len(steps)
	clean := true
	for i := n - 1; i >= 0; i-- {
		steps = append(steps, Step{Kind: StepGreedy, Entry: int32(i)})
		if susp == nil {
			continue
		}
		s := susp[i].Suspicion
		if clean {
			clean = s == 0
			continue
		}
		j := len(steps) - 1
		for j > start && susp[steps[j-1].Entry].Suspicion > s {
			steps[j] = steps[j-1]
			j--
		}
		steps[j] = Step{Kind: StepGreedy, Entry: int32(i)}
	}
	return steps
}
