package core

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/hierarchy"
	"repro/internal/idspace"
	"repro/internal/overlay"
)

// QueryOutcome classifies an end-to-end query.
type QueryOutcome int

const (
	// QueryDelivered means the query reached the destination node.
	QueryDelivered QueryOutcome = iota + 1
	// QueryFailed means no forwarding path to the destination survived.
	QueryFailed
	// QueryDropped means a compromised node silently discarded the query
	// (§5.3).
	QueryDropped
)

// String implements fmt.Stringer.
func (q QueryOutcome) String() string {
	switch q {
	case QueryDelivered:
		return "delivered"
	case QueryFailed:
		return "failed"
	case QueryDropped:
		return "dropped"
	default:
		return fmt.Sprintf("outcome(%d)", int(q))
	}
}

// QueryOptions tunes one query.
type QueryOptions struct {
	// Rng supplies the query's random choices (entrance selection). It
	// is required; per-query generators keep experiment runs replayable.
	Rng *rand.Rand
	// TracePath records every node the query visits.
	TracePath bool
	// Load, when non-nil, counts every node the query visits — the
	// hierarchy-level workload metric.
	Load *LoadTracker
}

// QueryResult reports an end-to-end query.
type QueryResult struct {
	Outcome QueryOutcome
	// Hops is the total number of forwarding hops: hierarchical hops,
	// intra-overlay hops, and inter-overlay nephew hops. The §5 metric.
	Hops int
	// HierarchicalHops counts prescribed top-down parent-to-child hops.
	HierarchicalHops int
	// OverlayHops counts intra-overlay sibling/backward hops.
	OverlayHops int
	// BackwardHops counts the subset of OverlayHops taken in backward
	// mode (§4.2).
	BackwardHops int
	// NephewHops counts inter-overlay hops via nephew pointers.
	NephewHops int
	// UsedOverlay reports whether any overlay forwarding occurred (false
	// means pure hierarchical forwarding succeeded).
	UsedOverlay bool
	// Path lists the visited nodes when QueryOptions.TracePath is set.
	Path []*hierarchy.Node
	// DroppedBy names the compromised node that discarded the query, if
	// Outcome is QueryDropped.
	DroppedBy *hierarchy.Node
}

// Query forwards a lookup for name through the HOURS hierarchy and reports
// how it fared. The destination holds the answer; per the paper's model we
// require it to exist in the hierarchy.
func (s *System) Query(name string, opts QueryOptions) (QueryResult, error) {
	dst, ok := s.tree.Lookup(name)
	if !ok {
		return QueryResult{}, fmt.Errorf("core: query %q: no such node", name)
	}
	return s.QueryNode(dst, opts)
}

// QueryNode is Query addressed by node instead of name. It is safe to call
// concurrently once the system is prepared and quiescent (see the System
// concurrency contract).
func (s *System) QueryNode(dst *hierarchy.Node, opts QueryOptions) (QueryResult, error) {
	if dst == nil {
		return QueryResult{}, fmt.Errorf("core: query to nil node")
	}
	if opts.Rng == nil {
		return QueryResult{}, fmt.Errorf("core: QueryOptions.Rng is required")
	}
	q := queryRunPool.Get().(*queryRun)
	q.sys = s
	q.opts = opts
	res, err := q.run(dst)
	// Recycle the run's bookkeeping. res.Path (when traced) now belongs to
	// the caller, so everything except the overlay-path scratch is zeroed;
	// the scratch is private to routeInOverlay and safe to reuse.
	*q = queryRun{ovPath: q.ovPath[:0]}
	queryRunPool.Put(q)
	if err != nil {
		return QueryResult{}, err
	}
	return res, nil
}

// queryRunPool recycles per-query bookkeeping so the steady-state query
// loop of a Monte-Carlo sweep allocates nothing (alloc_test.go).
var queryRunPool = sync.Pool{New: func() any { return new(queryRun) }}

// queryRun carries one query's bookkeeping.
type queryRun struct {
	sys  *System
	opts QueryOptions
	res  QueryResult

	// lastOnPath/lastLevel record where overlayPhase landed the query
	// back on the prescribed path.
	lastOnPath *hierarchy.Node
	lastLevel  int

	// ovPath is the reusable backing buffer for traced overlay routes
	// (overlay.RouteOptions.PathBuf); routeInOverlay consumes the path
	// before the next route, so one buffer serves the whole query.
	ovPath []int32
}

// visit records arrival at node n and applies insider-drop semantics.
// It returns false if the query was dropped.
func (q *queryRun) visit(n *hierarchy.Node) bool {
	if q.opts.TracePath {
		q.res.Path = append(q.res.Path, n)
	}
	if q.opts.Load != nil {
		q.opts.Load.visit(n)
	}
	if q.sys.compromised[n] {
		q.res.Outcome = QueryDropped
		q.res.DroppedBy = n
		return false
	}
	return true
}

// run executes the mixed hierarchical/overlay forwarding of §3.3.
func (q *queryRun) run(dst *hierarchy.Node) (QueryResult, error) {
	s := q.sys
	path := dst.PathFromRoot()
	l := len(path) - 1

	// Level the query is currently positioned at, and the node there.
	// cur == nil means the query still needs to enter the hierarchy.
	var cur *hierarchy.Node
	level := 0

	if s.cfg.DisableOverlays {
		return q.runUnprotected(path)
	}

	if s.Alive(path[0]) {
		cur = path[0]
		if !q.visit(cur) {
			return q.res, nil
		}
	} else {
		// Bootstrap (§7): the client enters through a cached member of
		// the shallowest on-path overlay with a survivor.
		st, entrance, lvl := q.bootstrap(path)
		if st == nil {
			q.res.Outcome = QueryFailed
			return q.res, nil
		}
		q.res.UsedOverlay = true
		if !q.visit(st.members[entrance]) {
			return q.res, nil
		}
		// Forward inside overlay S_lvl toward OD v_lvl.
		done, err := q.overlayPhase(path, lvl, st, entrance)
		if done || err != nil {
			return q.res, err
		}
		cur, level = q.lastOnPath, q.lastLevel
	}

	for {
		if cur == path[l] {
			q.res.Outcome = QueryDelivered
			return q.res, nil
		}
		next := path[level+1]
		if s.Alive(next) {
			// Hierarchical forwarding: one prescribed top-down hop.
			q.res.Hops++
			q.res.HierarchicalHops++
			if !q.visit(next) {
				return q.res, nil
			}
			cur = next
			level++
			continue
		}
		// The next on-path node is under attack: detour through its
		// sibling overlay (Algorithm 2 line 6 / footnote 4, per the
		// configured entrance policy).
		q.res.UsedOverlay = true
		st := s.state(cur)
		if st == nil {
			q.res.Outcome = QueryFailed
			return q.res, nil
		}
		entrance := q.pickEntrance(st, next)
		if entrance < 0 {
			q.res.Outcome = QueryFailed
			return q.res, nil
		}
		q.res.Hops++
		q.res.HierarchicalHops++
		if !q.visit(st.members[entrance]) {
			return q.res, nil
		}
		done, err := q.overlayPhase(path, level+1, st, entrance)
		if done || err != nil {
			return q.res, err
		}
		cur, level = q.lastOnPath, q.lastLevel
	}
}

// runUnprotected forwards along the prescribed top-down path only — the
// §1 baseline without HOURS, where any dead ancestor denies the whole
// subtree (Figure 1's domino effect).
func (q *queryRun) runUnprotected(path []*hierarchy.Node) (QueryResult, error) {
	for i, n := range path {
		if !q.sys.Alive(n) {
			q.res.Outcome = QueryFailed
			return q.res, nil
		}
		if !q.visit(n) {
			return q.res, nil
		}
		if i > 0 {
			q.res.Hops++
			q.res.HierarchicalHops++
		}
	}
	q.res.Outcome = QueryDelivered
	return q.res, nil
}

// overlayPhase forwards the query across overlays starting inside overlay
// S_lvl (state st, whose OD node is path[lvl]) at the member with ring
// index entrance, chaining nephew hops through deeper overlays while OD
// nodes keep being dead (footnote 4). Positions travel as (overlay state,
// ring index) pairs, the overlay's own coordinates.
// It returns done=true when the query terminated (delivered to the final
// destination, failed, or dropped); otherwise the query reached an alive
// on-path node recorded for the hierarchical loop to resume.
func (q *queryRun) overlayPhase(path []*hierarchy.Node, lvl int, st *ovState, entrance int) (bool, error) {
	l := len(path) - 1
	for {
		od := path[lvl]
		res, dropped, err := q.routeInOverlay(st, entrance, od)
		if err != nil {
			return true, err
		}
		if dropped {
			return true, nil
		}
		switch res.Outcome {
		case overlay.Delivered:
			// Reached the alive OD node: hierarchical forwarding
			// resumes there.
			q.lastOnPath = od
			q.lastLevel = lvl
			return false, nil
		case overlay.Failed:
			q.res.Outcome = QueryFailed
			return true, nil
		case overlay.Exited:
			// res.Exit holds an entry for the dead OD node and q
			// nephew pointers to its children. Hop into the next
			// overlay.
			if lvl == l {
				// The destination itself is dead; with the paper's
				// model the destination is the surviving node, but
				// guard against direct misuse.
				q.res.Outcome = QueryFailed
				return true, nil
			}
			nextOD := path[lvl+1]
			next, nephew := q.bestNephew(st, res.Exit, od, nextOD)
			if nephew < 0 {
				// All q nephew pointers target attacked nodes: the
				// inter-overlay hop fails (probability ~ alpha^q,
				// §5.2).
				q.res.Outcome = QueryFailed
				return true, nil
			}
			q.res.Hops++
			q.res.NephewHops++
			if !q.visit(next.members[nephew]) {
				return true, nil
			}
			if next.members[nephew] == nextOD {
				q.lastOnPath = nextOD
				q.lastLevel = lvl + 1
				return false, nil
			}
			st, entrance = next, nephew
			lvl++
		default:
			return true, fmt.Errorf("core: unexpected overlay outcome %v", res.Outcome)
		}
	}
}

// routeInOverlay runs intra-overlay forwarding from ring index entrance
// toward od (a primary member of st) and folds the hops and the visited
// nodes into the query result. dropped reports insider discards.
func (q *queryRun) routeInOverlay(st *ovState, entrance int, od *hierarchy.Node) (overlay.Result, bool, error) {
	needTrace := q.opts.TracePath || q.opts.Load != nil || len(q.sys.compromised) > 0
	res, err := st.ov.Route(entrance, od.RingIndex(), overlay.RouteOptions{
		TracePath: needTrace,
		PathBuf:   q.ovPath,
	})
	if err != nil {
		return overlay.Result{}, false, fmt.Errorf("core: overlay %s: %w", st.parent.Name(), err)
	}
	q.res.Hops += res.Hops
	q.res.OverlayHops += res.Hops
	q.res.BackwardHops += res.BackwardHops
	if needTrace {
		// The route is done with the buffer once visited; keep the grown
		// backing array for the next overlay phase (and the next pooled
		// query).
		q.ovPath = res.Path[:0]
		// Path[0] is the entrance, already visited by the caller.
		for _, idx := range res.Path[1:] {
			if !q.visit(st.members[idx]) {
				return res, true, nil
			}
		}
	}
	return res, false, nil
}

// bestNephew picks, among the alive nephew pointers that st's member exit
// keeps for the dead OD node, the child closest in the identifier space to
// the next level's OD node (Algorithm 2 line 12). It returns the overlay of
// od's children and the nephew's ring index there, or -1 if no pointer
// survives. Liveness is read from that overlay, which SetAlive keeps in
// step with the system's own record.
func (q *queryRun) bestNephew(st *ovState, exit int, od, nextOD *hierarchy.Node) (*ovState, int) {
	next := q.sys.state(od)
	if next == nil || st.members[exit].Parent() != st.parent {
		return nil, -1 // an adopted member (§7 mesh) keeps no nephews
	}
	ring := len(next.members)
	odIdx := nextOD.RingIndex()
	best, bestDist := -1, ring
	for _, p := range q.sys.nephewPicks(st, exit, od.RingIndex(), ring) {
		if !next.ov.Alive(int(p)) {
			continue
		}
		if d := idspace.IndexDist(int(p), odIdx, ring); d < bestDist {
			best, bestDist = int(p), d
		}
	}
	return next, best
}

// bootstrap finds the shallowest on-path overlay with an alive member and
// returns it with a cached entrance into it (§7 "Query Bootstrapping") and
// the overlay's OD level; a nil state means no overlay has a survivor.
func (q *queryRun) bootstrap(path []*hierarchy.Node) (*ovState, int, int) {
	for lvl := 1; lvl < len(path); lvl++ {
		st := q.sys.state(path[lvl].Parent())
		if st == nil {
			continue
		}
		if e := q.randomAliveMember(st); e >= 0 {
			return st, e, lvl
		}
	}
	return nil, -1, 0
}

// pickEntrance chooses the overlay entrance for a detour around the dead
// OD node per the configured policy: a ring index in st, or -1 if no
// member survives.
func (q *queryRun) pickEntrance(st *ovState, od *hierarchy.Node) int {
	if q.sys.cfg.Entrance == EntranceCCWNeighbor {
		return st.ov.NearestAliveCCW(od.RingIndex())
	}
	return q.randomAliveMember(st)
}

// randomAliveMember picks a uniformly random alive member of an overlay, or
// -1 if none survives.
func (q *queryRun) randomAliveMember(st *ovState) int {
	n := len(st.members)
	if st.ov.AliveCount() == 0 {
		return -1
	}
	// Draw directly when most members survive; otherwise scan from a
	// random offset (attack densities of interest leave survivors).
	for attempt := 0; attempt < 4; attempt++ {
		if i := q.opts.Rng.IntN(n); st.ov.Alive(i) {
			return i
		}
	}
	start := q.opts.Rng.IntN(n)
	for d := 0; d < n; d++ {
		if i := (start + d) % n; st.ov.Alive(i) {
			return i
		}
	}
	return -1
}
