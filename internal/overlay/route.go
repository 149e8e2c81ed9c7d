package overlay

import (
	"fmt"

	"repro/internal/idspace"
	"repro/internal/metrics"
	"repro/internal/routing"
)

// Outcome classifies how an intra-overlay forwarding attempt ended.
type Outcome int

const (
	// Delivered means the query reached the overlay-destination (OD) node
	// itself, which is alive; hierarchical forwarding resumes there.
	Delivered Outcome = iota + 1
	// Exited means the OD node is out of service, and the query stopped
	// at an exit node: one that holds a routing entry for the OD node
	// (and therefore nephew pointers to its children in the enhanced
	// design, or the OD's immediate counter-clockwise neighbor in the
	// base design). The core layer continues with a nephew hop.
	Exited
	// Failed means the query could not reach the OD node or any exit
	// node: the overlay's connectivity to the OD has been destroyed.
	Failed
)

// String implements fmt.Stringer.
func (oc Outcome) String() string {
	switch oc {
	case Delivered:
		return "delivered"
	case Exited:
		return "exited"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", int(oc))
	}
}

// RouteOptions tunes a forwarding attempt.
type RouteOptions struct {
	// Load, when non-nil, is incremented for every node that forwards
	// the query (the Figure 8 workload metric).
	Load *metrics.LoadCounter
	// TracePath, when set, records the sequence of visited nodes.
	TracePath bool
	// PathBuf, when non-nil and TracePath is set, is used (truncated) as
	// the backing storage for Result.Path, letting callers that consume
	// the path immediately reuse one buffer across many routes.
	PathBuf []int32
	// MaxHops caps the walk; zero means 3*N (enough for a full greedy
	// pass plus a full backward wrap). Exceeding the cap fails the route.
	MaxHops int
}

// Result reports a forwarding attempt.
type Result struct {
	Outcome Outcome
	// Exit is the node where the query stopped: the OD node itself when
	// Delivered, the exit node when Exited, and the last node visited
	// when Failed.
	Exit int
	// Hops is the number of intra-overlay forwarding hops taken.
	Hops int
	// BackwardHops counts the hops taken in backward mode (§4.2), a
	// subset of Hops.
	BackwardHops int
	// Path holds the visited nodes (including src, excluding none) when
	// RouteOptions.TracePath is set.
	Path []int32
}

// Route forwards a query from entrance node src toward the
// overlay-destination node od, per Algorithm 2 (base design) or
// Algorithm 3 (enhanced design). src must be alive; od may be dead, in
// which case the walk looks for an exit node.
//
// The decision at each visited node is made by the shared routing kernel
// (internal/routing): Route locates the OD in the node's sorted table of
// int32 index distances — the sim's native metric, no identifiers are
// built — asks Decide for the ranked plan, and "attempts" each planned
// hop by checking the target's liveness, the sim's stand-in for the live
// node's RPC. Backward mode follows each node's counter-clockwise
// pointer. If a pointer targets a dead node (a gap that active recovery
// has not yet bridged — §4.3), the route fails; run Repair or
// BridgeGapsIdeal after failures to model a recovered overlay.
func (o *Overlay) Route(src, od int, opts RouteOptions) (Result, error) {
	if src < 0 || src >= o.n {
		return Result{}, fmt.Errorf("overlay: route src %d out of range [0,%d)", src, o.n)
	}
	if od < 0 || od >= o.n {
		return Result{}, fmt.Errorf("overlay: route od %d out of range [0,%d)", od, o.n)
	}
	if !o.alive[src] {
		return Result{}, fmt.Errorf("overlay: route src %d is not alive", src)
	}
	maxHops := opts.MaxHops
	if maxHops <= 0 {
		maxHops = 3 * o.n
	}

	design := routing.Enhanced
	if o.design == Base {
		design = routing.Base
	}
	// The plan lives on this frame; only a table wider than the array (K
	// beyond every figure's) makes append spill to the heap.
	var stack [planStack]routing.Step
	plan := stack[:0]

	res := Result{Exit: src}
	u := src
	backward := false
	if opts.TracePath {
		res.Path = append(opts.PathBuf[:0], int32(src))
	}

	for {
		if u == od {
			// Only reachable when od is alive: hops toward a dead od
			// stop at an exit instead.
			res.Outcome = Delivered
			res.Exit = u
			return res, nil
		}
		if res.Hops >= maxHops {
			res.Outcome = Failed
			res.Exit = u
			return res, nil
		}

		// Locate: the sim models the steady state of §4.1 (every entry's
		// nephews were fetched when the table was built), so any OD entry
		// is an exit in the enhanced design; per-peer suspicion is a
		// live-node concern and every entry ranks clean.
		t := o.table(u)
		odd := int32(idspace.IndexDist(u, od, o.n))
		at := routing.Locus{Closer: lowerBound(t, odd)}
		if at.Closer < len(t) && t[at.Closer] == odd {
			at.HasOD = true
			at.Exit = design == routing.Enhanced || odd == 1
		}
		ccw := int(o.ccw[u])
		if ccw != u {
			at.CCW = routing.CCWOK
			if int32(idspace.IndexDist(ccw, od, o.n)) <= odd {
				at.CCW = routing.CCWWraps
			}
		}
		plan, _ = routing.Decide(design, at, backward, nil, plan[:0])

		next := -1
		for _, st := range plan {
			switch st.Kind {
			case routing.StepOD:
				if o.alive[od] {
					next = od
				}
			case routing.StepNephew:
				// The OD is down and u holds a usable entry for it: u is
				// the exit node; the core layer descends via nephews.
				res.Outcome = Exited
				res.Exit = u
				return res, nil
			case routing.StepGreedy:
				if c := idspace.IndexAdd(u, int(t[st.Entry]), o.n); o.alive[c] {
					next = c
				}
			case routing.StepBackward:
				if !o.alive[ccw] {
					// Unbridged gap: backward forwarding cannot proceed
					// until recovery runs.
					res.Outcome = Failed
					res.Exit = u
					return res, nil
				}
				next = ccw
				backward = true
				res.BackwardHops++
			}
			if next >= 0 {
				break
			}
		}
		if next < 0 {
			// Plan exhausted (greedy dead-ends in the base design, no CCW
			// pointer, or a backward step that would wrap past the OD).
			res.Outcome = Failed
			res.Exit = u
			return res, nil
		}

		if opts.Load != nil {
			opts.Load.Inc(u)
		}
		u = next
		res.Hops++
		if opts.TracePath {
			res.Path = append(res.Path, int32(u))
		}
	}
}

// planStack sizes the on-stack plan storage of Route and repairHop.
const planStack = 96

// lowerBound returns the number of elements in sorted ascending s that are
// < v: the position of v if present, its insertion point otherwise.
func lowerBound(s []int32, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
