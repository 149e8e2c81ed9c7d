// Package core assembles the full HOURS system: it augments a service
// hierarchy with one randomized overlay per sibling group (§3.1), maintains
// nephew pointers across adjacent levels (§3.2, §4.1), and forwards queries
// with the paper's mixture of hierarchical and overlay forwarding (§3.3,
// §4.2), including inter-overlay nephew hops, bootstrapping when ancestors
// are under attack (§7), and insider-attack behavior (§5.3).
package core

import (
	"fmt"
	"sync"

	"repro/internal/hierarchy"
	"repro/internal/overlay"
	"repro/internal/xrand"
)

// Config parameterizes a System.
type Config struct {
	// Design selects the base or enhanced overlay design. Zero defaults
	// to Enhanced.
	Design overlay.Design
	// K is the enhanced design's redundancy factor (default 1).
	K int
	// Q is the number of nephew pointers kept per routing-table entry
	// (default 10, the value §5.2 calls reasonably large).
	Q int
	// Seed drives all randomized structure. Identical (tree, Config)
	// pairs produce identical systems.
	Seed uint64
	// LazyOverlayAbove makes overlays with more members than this
	// generate routing tables on demand. Zero means 10,000.
	LazyOverlayAbove int
	// AutoRepair runs the active-recovery protocol on an overlay
	// whenever failures are applied to it (default on via New).
	AutoRepair bool
	// DisableOverlays turns HOURS off: queries use only the prescribed
	// top-down path and fail at the first dead ancestor. The
	// unprotected baseline of §1/Figure 1, for contrast experiments.
	DisableOverlays bool
	// Entrance selects how a parent forwards into its children's
	// overlay when the on-path child is down. Zero defaults to
	// EntranceRandomChild.
	Entrance EntrancePolicy
}

// EntrancePolicy selects the overlay entrance when the on-path child is
// under attack.
type EntrancePolicy int

const (
	// EntranceRandomChild follows Algorithm 2 line 6 literally: the
	// parent forwards to a uniformly random alive child.
	EntranceRandomChild EntrancePolicy = iota + 1
	// EntranceCCWNeighbor follows footnote 4's hint: the parent — which
	// assigned its children's ring indices and therefore knows the ring
	// — forwards directly to the OD node's closest alive
	// counter-clockwise neighbor, the most likely exit node. This skips
	// most of the greedy phase.
	EntranceCCWNeighbor
)

// System is an HOURS-protected service hierarchy.
//
// Concurrency: querying (QueryNode, Query) is safe from multiple
// goroutines once the hierarchy is frozen and all mutations (SetAlive,
// SetCompromised, Repair, replication changes) have completed, provided
// every overlay a query can touch has been built — call Prepare for each
// destination first (or issue one warm-up query per destination serially).
// Mutations require exclusive access.
type System struct {
	tree *hierarchy.Tree
	cfg  Config

	// mu guards states so concurrent queries can build overlay state
	// lazily without racing.
	mu     sync.RWMutex
	states map[*hierarchy.Node]*ovState // keyed by parent node

	dead        map[*hierarchy.Node]bool
	compromised map[*hierarchy.Node]bool
	dirty       map[*ovState]bool // overlays with unrepaired failures
	// replicas tracks §7 server replication; nil entries mean a single
	// server (see replica.go).
	replicas map[*hierarchy.Node]*replicaState
}

// ovState binds one sibling group's overlay to its hierarchy nodes.
type ovState struct {
	parent  *hierarchy.Node
	ov      *overlay.Overlay
	members []*hierarchy.Node // ring index -> node
	seed    uint64

	// nephewMu guards nephewCache, the per-(holder, target) memo of the
	// stable nephew selection (see nephewPicks).
	nephewMu    sync.RWMutex
	nephewCache map[uint64][]int32
}

// nephewCacheLimit bounds each overlay's nephew memo. The hot experiments
// (fig9/fig10) hammer a handful of exit→OD pairs, so the cache stays tiny
// in practice; the limit only guards pathological access patterns from
// growing it without bound.
const nephewCacheLimit = 1 << 15

// New wraps tree in an HOURS system. The tree remains owned by the caller
// but must not gain or lose nodes while the system is in use (rebuild the
// system after membership changes, mirroring the §7 maintenance cycle).
func New(tree *hierarchy.Tree, cfg Config) (*System, error) {
	if tree == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	if cfg.Design == 0 {
		cfg.Design = overlay.Enhanced
	}
	if cfg.K == 0 {
		cfg.K = 1
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: K=%d, want >= 1", cfg.K)
	}
	if cfg.Q == 0 {
		cfg.Q = 10
	}
	if cfg.Q < 1 {
		return nil, fmt.Errorf("core: Q=%d, want >= 1", cfg.Q)
	}
	if cfg.LazyOverlayAbove == 0 {
		cfg.LazyOverlayAbove = 10000
	}
	switch cfg.Entrance {
	case 0:
		cfg.Entrance = EntranceRandomChild
	case EntranceRandomChild, EntranceCCWNeighbor:
	default:
		return nil, fmt.Errorf("core: unknown entrance policy %d", cfg.Entrance)
	}
	cfg.AutoRepair = true
	return &System{
		tree:        tree,
		cfg:         cfg,
		states:      make(map[*hierarchy.Node]*ovState),
		dead:        make(map[*hierarchy.Node]bool),
		compromised: make(map[*hierarchy.Node]bool),
		dirty:       make(map[*ovState]bool),
	}, nil
}

// Tree returns the underlying hierarchy.
func (s *System) Tree() *hierarchy.Tree { return s.tree }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Alive reports whether a node is in service.
func (s *System) Alive(n *hierarchy.Node) bool { return !s.dead[n] }

// SetAlive marks a node up or down (a DoS attack shuts a node down
// completely, §5). The node's sibling overlay, if built, is updated and
// queued for repair.
func (s *System) SetAlive(n *hierarchy.Node, up bool) {
	if up {
		delete(s.dead, n)
	} else {
		s.dead[n] = true
	}
	if n.Parent() == nil {
		return // the root joins no overlay
	}
	// Update every built overlay the node is a member of: its primary
	// parent's plus any mesh adoptions (§7). SetAlive is a mutation and
	// must not run concurrently with queries; the lock only keeps the
	// states map access consistent with lazy builds.
	s.mu.RLock()
	defer s.mu.RUnlock()
	parents := append([]*hierarchy.Node{n.Parent()}, n.SecondaryParents()...)
	for _, p := range parents {
		if st, ok := s.states[p]; ok {
			if idx, member := p.IndexOfChild(n); member {
				st.ov.SetAlive(idx, up)
				s.dirty[st] = true
			}
		}
	}
}

// SetCompromised marks a node as attacker-controlled (§5.3). A compromised
// node stays "alive" for routing but silently drops every query forwarded
// through it.
func (s *System) SetCompromised(n *hierarchy.Node, compromised bool) {
	if compromised {
		s.compromised[n] = true
	} else {
		delete(s.compromised, n)
	}
}

// Repair runs the active-recovery protocol (§4.3) on every overlay with
// outstanding failures and returns the merged statistics.
func (s *System) Repair() overlay.RepairStats {
	var total overlay.RepairStats
	for st := range s.dirty {
		stats := st.ov.Repair()
		total.ProbesSent += stats.ProbesSent
		total.NeighborRecoveries += stats.NeighborRecoveries
		total.RepairMessages += stats.RepairMessages
		total.RepairHops += stats.RepairHops
		total.EntriesCreated += stats.EntriesCreated
		total.FailedRepairs += stats.FailedRepairs
		delete(s.dirty, st)
	}
	return total
}

// Overlay returns the overlay of parent's children, building it on first
// use. It returns nil for leaves (no children, no overlay).
func (s *System) Overlay(parent *hierarchy.Node) *overlay.Overlay {
	st := s.state(parent)
	if st == nil {
		return nil
	}
	return st.ov
}

// state returns (building if needed) the overlay state for parent's sibling
// group.
func (s *System) state(parent *hierarchy.Node) *ovState {
	s.mu.RLock()
	st, ok := s.states[parent]
	s.mu.RUnlock()
	if ok {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked(parent)
}

// stateLocked is state with s.mu already held exclusively.
func (s *System) stateLocked(parent *hierarchy.Node) *ovState {
	if st, ok := s.states[parent]; ok {
		return st
	}
	members := parent.Children()
	if len(members) == 0 {
		return nil
	}
	seed := xrand.Derive(s.cfg.Seed, parent.ID().Uint64()).Uint64()
	ov, err := overlay.New(overlay.Config{
		N:      len(members),
		Design: s.cfg.Design,
		K:      s.cfg.K,
		Seed:   seed,
		Lazy:   len(members) > s.cfg.LazyOverlayAbove,
	})
	if err != nil {
		// Config was validated in New and N >= 1; a failure here is a
		// programming error.
		panic(fmt.Sprintf("core: building overlay for %s: %v", parent.Name(), err))
	}
	st := &ovState{parent: parent, ov: ov, members: members, seed: seed}
	s.states[parent] = st
	// Apply any failures injected before the overlay was built.
	needRepair := false
	for i, m := range members {
		if s.dead[m] {
			ov.SetAlive(i, false)
			needRepair = true
		}
	}
	if needRepair {
		if s.cfg.AutoRepair {
			ov.Repair()
		} else {
			s.dirty[st] = true
		}
	}
	return st
}

// Nephews returns the q nephew pointers that entry-holder holder keeps for
// its routing entry toward sibling target: q deterministic pseudo-random
// children of target (§4.1's randomized nephew pointers). Both arguments
// are members of the same overlay. Fewer than q children means all of them
// are kept. The selection depends only on (system seed, overlay, holder,
// target), so it is stable across calls.
func (s *System) Nephews(holder, target *hierarchy.Node) []*hierarchy.Node {
	if holder.Parent() == nil || holder.Parent() != target.Parent() {
		return nil
	}
	kids := target.Children()
	st := s.state(holder.Parent())
	if len(kids) == 0 || st == nil {
		return nil
	}
	picks := s.nephewPicks(st, holder.RingIndex(), target.RingIndex(), len(kids))
	out := make([]*hierarchy.Node, len(picks))
	for i, p := range picks {
		out[i] = kids[p]
	}
	return out
}

// nephewPicks is the selection behind Nephews in the form the query path
// consumes: holder and target are ring indices in overlay st, and each
// pick is a nephew's ring index in the overlay of target's kids children
// (the parent assigns ring indices in Children order, so a pick into
// Children is that index). Because the selection is stable it is memoized
// per (holder, target); the returned slice is shared and must not be
// modified.
func (s *System) nephewPicks(st *ovState, holder, target, kids int) []int32 {
	key := uint64(uint32(holder))<<32 | uint64(uint32(target))
	st.nephewMu.RLock()
	out, ok := st.nephewCache[key]
	st.nephewMu.RUnlock()
	if ok {
		return out
	}
	if kids <= s.cfg.Q {
		out = make([]int32, kids)
		for i := range out {
			out[i] = int32(i)
		}
	} else {
		out = xrand.SampleDistinct(xrand.Derive(st.seed, key), kids, s.cfg.Q)
	}
	st.nephewMu.Lock()
	if cached, ok := st.nephewCache[key]; ok {
		out = cached // a racer beat us; keep one canonical slice
	} else if len(st.nephewCache) < nephewCacheLimit {
		if st.nephewCache == nil {
			st.nephewCache = make(map[uint64][]int32)
		}
		st.nephewCache[key] = out
	}
	st.nephewMu.Unlock()
	return out
}

// Prepare builds the overlay state of every sibling group along the
// prescribed path to dst and warms the associated ring-order caches. After
// Prepare (and once all mutations are done), concurrent QueryNode calls for
// dst are safe; experiment sweeps call it once per instance before fanning
// the query loop out across workers.
func (s *System) Prepare(dst *hierarchy.Node) {
	if dst == nil {
		return
	}
	for _, n := range dst.PathFromRoot() {
		n.Children() // warm the lazily sorted ring order
		s.state(n)
	}
}
