// Package overlay implements the HOURS randomized overlay network: the
// routing-table generation of Algorithm 1 (paper §3.2), the base and
// enhanced designs (§3 and §4.1), the greedy clockwise and backward
// forwarding of Algorithms 2 and 3 (§3.3, §4.2), and the active-recovery
// protocol of §4.3.
//
// One Overlay models the sibling group of a single parent in the service
// hierarchy: N nodes placed on a circular identifier space and indexed
// 0..N-1 clockwise by their parent. Node identity is an index; callers map
// indices to names/addresses. All randomness is derived from an explicit
// seed, so overlays (and whole experiments) are reproducible.
//
// Concurrency: an overlay — eager or lazy — is safe for concurrent Route
// and read-accessor calls once construction and any SetAlive/Repair
// mutations have completed (routing only reads, and lazy table generation
// publishes each node's table through a per-slot atomic compare-and-swap;
// every node draws from its own derived random stream, so a racing
// duplicate generation produces an identical table and the loser is
// discarded). Mutations — SetAlive, Repair, Stabilize, BridgeGapsIdeal,
// RegenerateTable — still require exclusive access: run them before or
// between query phases, never concurrently with routing.
//
// The overlay stores only sibling structure. Nephew pointers (which target
// nodes in a *different*, next-level overlay) are kept by package core,
// which knows the hierarchy; the overlay answers the structural question
// that determines exit nodes: "does node u hold a routing entry for od?"
package overlay

import (
	"fmt"
	"sync/atomic"

	"repro/internal/idspace"
)

// Design selects between the paper's two pointer-placement schemes.
type Design int

const (
	// Base is the §3 design: sibling pointer to distance d with
	// probability 1/d, q nephews only for the clockwise neighbor, no
	// counter-clockwise pointer, and no backward forwarding.
	Base Design = iota + 1
	// Enhanced is the §4 design: sibling pointer with probability
	// min(1, k/d), q nephews per table entry, one counter-clockwise
	// pointer, and backward forwarding.
	Enhanced
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case Base:
		return "base"
	case Enhanced:
		return "enhanced"
	default:
		return fmt.Sprintf("design(%d)", int(d))
	}
}

// fastGenThreshold is the overlay size above which table generation
// automatically switches from the O(N)-per-node loop of Algorithm 1 to the
// exact-equivalent skip sampler (see gen.go). Building a full overlay with
// the literal loop costs O(N^2); the paper's 50,000-node overlays take
// seconds with it and milliseconds with the sampler.
const fastGenThreshold = 1 << 12

// Config parameterizes an overlay.
type Config struct {
	// N is the number of sibling nodes in the overlay. Must be >= 1.
	N int
	// Design selects Base or Enhanced. Zero defaults to Enhanced.
	Design Design
	// K is the enhanced design's redundancy factor (number of guaranteed
	// clockwise-neighbor pointers and the numerator of the inclusion
	// probability min(1, k/d)). It must be >= 1 for Enhanced and is
	// forced to 1 for Base. Zero defaults to 1.
	K int
	// Seed makes table generation deterministic. Two overlays with equal
	// (N, Design, K, Seed) have identical routing tables.
	Seed uint64
	// Lazy defers routing-table generation for each node until the node
	// first forwards a query. Lazily generated tables are identical to
	// eager ones (each node has its own derived random stream). Use for
	// very large overlays where only a few nodes route queries.
	Lazy bool
	// ForceExactGen forces the O(N)-per-node reference generator even
	// above fastGenThreshold. Used by tests and ablations.
	ForceExactGen bool
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("overlay: config N=%d, want >= 1", c.N)
	}
	if c.K < 0 {
		return fmt.Errorf("overlay: config K=%d, want >= 0", c.K)
	}
	switch c.Design {
	case Base, Enhanced, 0:
	default:
		return fmt.Errorf("overlay: unknown design %d", c.Design)
	}
	return nil
}

// Overlay is one randomized sibling overlay.
type Overlay struct {
	n      int
	k      int
	design Design
	seed   uint64
	lazy   bool
	exact  bool

	// tables[i] holds node i's sibling pointers as clockwise index
	// distances, sorted ascending and free of duplicates — Algorithm 1's
	// entries plus any the active-recovery protocol created since. Eager
	// overlays fill it at construction and routing reads it directly
	// (contiguous slice headers, no indirection on the hot path). Lazy
	// overlays leave it nil and use lazyTables instead.
	tables [][]int32
	// lazyTables backs lazy mode: slot i is nil until node i's table is
	// first needed, and generation installs it with a compare-and-swap so
	// concurrent Route calls on a shared lazy overlay are race-free
	// (duplicate generations are identical; the CAS loser is discarded).
	lazyTables []atomic.Pointer[[]int32]
	// extras[i] counts node i's entries created outside Algorithm 1 (by
	// the active-recovery protocol). The entries themselves are merged
	// into the node's table when repair creates them, so no reader
	// consults this; it is the record ExtraEntries reports and
	// RegenerateTable clears.
	extras map[int32]int

	alive      []bool
	aliveCount int

	// ccw[i] is node i's counter-clockwise neighbor pointer (§4.2/§4.3).
	// It starts at (i-1) mod N and is updated by repair. Base-design
	// overlays keep it too (it is how the paper's base exit-node rule is
	// expressed) but base routing never walks backward.
	ccw []int32
}

// New builds an overlay and, unless cfg.Lazy is set, generates every node's
// routing table.
func New(cfg Config) (*Overlay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Design == 0 {
		cfg.Design = Enhanced
	}
	k := cfg.K
	if k == 0 {
		k = 1
	}
	if cfg.Design == Base {
		k = 1
	}
	o := &Overlay{
		n:          cfg.N,
		k:          k,
		design:     cfg.Design,
		seed:       cfg.Seed,
		lazy:       cfg.Lazy,
		exact:      cfg.ForceExactGen || cfg.N <= fastGenThreshold,
		extras:     make(map[int32]int),
		alive:      make([]bool, cfg.N),
		aliveCount: cfg.N,
		ccw:        make([]int32, cfg.N),
	}
	for i := range o.alive {
		o.alive[i] = true
		o.ccw[i] = int32(idspace.IndexAdd(i, -1, o.n))
	}
	if o.lazy {
		o.lazyTables = make([]atomic.Pointer[[]int32], cfg.N)
	} else {
		o.tables = make([][]int32, cfg.N)
		for i := 0; i < o.n; i++ {
			o.tables[i] = o.genTable(i, 0)
		}
	}
	return o, nil
}

// Size returns the number of nodes N.
func (o *Overlay) Size() int { return o.n }

// K returns the redundancy factor in effect (always 1 for Base).
func (o *Overlay) K() int { return o.k }

// Design returns the overlay's design.
func (o *Overlay) Design() Design { return o.design }

// Alive reports whether node i is in service.
func (o *Overlay) Alive(i int) bool { return o.alive[i] }

// AliveCount returns how many nodes are in service.
func (o *Overlay) AliveCount() int { return o.aliveCount }

// SetAlive marks node i up or down. Marking a node down models a DoS
// attack that renders it completely unresponsive (§5). It does not run
// recovery; call Repair (or rely on routing's failure handling) afterwards.
func (o *Overlay) SetAlive(i int, up bool) {
	if o.alive[i] == up {
		return
	}
	o.alive[i] = up
	if up {
		o.aliveCount++
	} else {
		o.aliveCount--
	}
}

// table returns node i's generated routing table, generating it on demand
// in lazy mode. Generation races (concurrent Route calls on a shared lazy
// overlay) are benign: each node's table comes from its own derived random
// stream, so every racer computes the same table and CAS keeps exactly one.
func (o *Overlay) table(i int) []int32 {
	if o.tables != nil {
		return o.tables[i]
	}
	if p := o.lazyTables[i].Load(); p != nil {
		return *p
	}
	t := o.genTable(i, 0)
	if o.lazyTables[i].CompareAndSwap(nil, &t) {
		return t
	}
	return *o.lazyTables[i].Load()
}

// setTable installs node i's table. Like every mutation it requires
// exclusive access, so a lazy slot is simply stored.
func (o *Overlay) setTable(i int, t []int32) {
	if o.tables != nil {
		o.tables[i] = t
	} else {
		o.lazyTables[i].Store(&t)
	}
}

// Table returns node i's routing entries as clockwise index distances in
// ascending order, including any entries created by repair. The slice
// aliases internal storage and must not be modified.
func (o *Overlay) Table(i int) []int32 { return o.table(i) }

// TableSize returns the number of routing entries node i holds (the unit of
// Figure 5: one entry is one sibling pointer plus its q nephews in the
// enhanced design).
func (o *Overlay) TableSize(i int) int { return len(o.table(i)) }

// HasEntry reports whether node i's routing table (including repair
// entries) contains node j.
func (o *Overlay) HasEntry(i, j int) bool {
	if i == j {
		return false
	}
	return containsSorted(o.table(i), int32(idspace.IndexDist(i, j, o.n)))
}

// addExtraEntry records a repair-created routing entry at node i pointing
// to node j, merging it into i's sorted table. It is idempotent.
func (o *Overlay) addExtraEntry(i, j int) {
	t, d := o.table(i), int32(idspace.IndexDist(i, j, o.n))
	at := lowerBound(t, d)
	if i == j || at < len(t) && t[at] == d {
		return
	}
	merged := make([]int32, 0, len(t)+1)
	merged = append(append(append(merged, t[:at]...), d), t[at:]...)
	o.setTable(i, merged)
	o.extras[int32(i)]++
}

// ExtraEntries returns the number of repair-created entries at node i.
func (o *Overlay) ExtraEntries(i int) int { return o.extras[int32(i)] }

// CCW returns node i's current counter-clockwise neighbor pointer. The
// target may be dead if no repair has run since the failure.
func (o *Overlay) CCW(i int) int { return int(o.ccw[i]) }

// setCCW updates node i's counter-clockwise pointer.
func (o *Overlay) setCCW(i, j int) { o.ccw[i] = int32(j) }

// NearestAliveCCW returns the closest alive node counter-clockwise of i
// (exclusive), or -1 if no other node is alive.
func (o *Overlay) NearestAliveCCW(i int) int {
	for d := 1; d < o.n; d++ {
		j := idspace.IndexAdd(i, -d, o.n)
		if o.alive[j] {
			return j
		}
	}
	return -1
}

// NearestAliveCW returns the closest alive node clockwise of i (exclusive),
// or -1 if no other node is alive.
func (o *Overlay) NearestAliveCW(i int) int {
	for d := 1; d < o.n; d++ {
		j := idspace.IndexAdd(i, d, o.n)
		if o.alive[j] {
			return j
		}
	}
	return -1
}

// containsSorted reports whether sorted ascending s contains v.
func containsSorted(s []int32, v int32) bool {
	at := lowerBound(s, v)
	return at < len(s) && s[at] == v
}
