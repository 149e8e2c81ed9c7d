package overlay

import (
	"repro/internal/idspace"
	"repro/internal/routing"
)

// RepairStats summarizes one run of the active-recovery protocol (§4.3).
type RepairStats struct {
	// ProbesSent is the number of counter-clockwise probes issued (one
	// per alive node per probing period).
	ProbesSent int
	// NeighborRecoveries counts pointers fixed by conventional
	// neighborhood recovery: an alive counter-clockwise neighbor within
	// distance k contacted the probing node.
	NeighborRecoveries int
	// RepairMessages counts Repair messages originated (gaps of at least
	// k consecutive failures).
	RepairMessages int
	// RepairHops is the total number of hops traveled by Repair messages.
	RepairHops int
	// EntriesCreated counts routing entries created at gap-bridging
	// nodes.
	EntriesCreated int
	// FailedRepairs counts nodes that detected a gap but whose Repair
	// message could not be launched or routed (e.g. every routing-table
	// target of the origin is out of service). Such nodes remain
	// disconnected until tables regenerate.
	FailedRepairs int
}

// Repair runs one probing period of the active-recovery protocol: every
// alive node probes its counter-clockwise neighbor; nodes that detect a
// failure first wait for a surviving counter-clockwise neighbor within
// distance k to contact them, and otherwise originate a Repair message that
// is routed per §4.3 until it reaches the alive node just
// counter-clockwise of the gap, which creates a bridging routing entry.
//
// Repair is idempotent once the overlay reaches a consistent state; call it
// after each batch of failures (or repeatedly under churn).
func (o *Overlay) Repair() RepairStats {
	var stats RepairStats
	for x := 0; x < o.n; x++ {
		if !o.alive[x] {
			continue
		}
		stats.ProbesSent++
		if o.alive[o.ccw[x]] && int(o.ccw[x]) != x {
			continue // counter-clockwise neighbor answered the probe
		}

		// Conventional recovery: one of x's k counter-clockwise
		// neighbors holds a clockwise pointer to x and, if alive, will
		// contact x within the next period.
		if y, ok := o.aliveCCWWithin(x, o.k); ok {
			o.setCCW(x, y)
			stats.NeighborRecoveries++
			continue
		}

		// Massive failure: at least k consecutive counter-clockwise
		// neighbors are down. Originate a Repair message destined to x.
		stats.RepairMessages++
		bridger, hops, ok := o.routeRepair(x)
		stats.RepairHops += hops
		if !ok {
			stats.FailedRepairs++
			continue
		}
		if !o.HasEntry(bridger, x) {
			o.addExtraEntry(bridger, x)
			stats.EntriesCreated++
		}
		// x fills its counter-clockwise pointer from the Repair message.
		o.setCCW(x, bridger)
	}
	return stats
}

// aliveCCWWithin returns the nearest alive node within maxDist steps
// counter-clockwise of x (exclusive).
func (o *Overlay) aliveCCWWithin(x, maxDist int) (int, bool) {
	for d := 1; d <= maxDist && d < o.n; d++ {
		y := idspace.IndexAdd(x, -d, o.n)
		if o.alive[y] {
			return y, true
		}
	}
	return 0, false
}

// routeRepair forwards a Repair message destined to origin around the ring
// per the §4.3 rules and returns the node that ends up bridging the gap.
// Every hop takes the first live target of the kernel's repair ranking:
//
//   - the origin launches over its whole table (RepairLaunchOrder), i.e.
//     to its target closest to itself going clockwise around the circle;
//   - every other node forwards over the entries strictly closer to the
//     origin than itself (RepairForwardOrder). A node without origin in
//     its table thereby forwards like a normal query; a node with it takes
//     the second-best choice, pushing the message past direct pointers so
//     it keeps approaching the gap from the counter-clockwise side;
//   - a node that cannot forward is the bridger: it creates a routing
//     entry for origin.
func (o *Overlay) routeRepair(origin int) (bridger, hops int, ok bool) {
	u, launched := o.repairHop(origin, o.n)
	if !launched {
		return 0, 0, false
	}
	hops = 1
	for hops <= o.n {
		next, forwarded := o.repairHop(u, idspace.IndexDist(u, origin, o.n))
		if !forwarded {
			return u, hops, true
		}
		u = next
		hops++
	}
	// A routing loop should be impossible (distance to origin strictly
	// decreases); the cap guards against pathological states.
	return 0, hops, false
}

// repairHop returns u's alive routing target with the largest clockwise
// distance strictly below limit — the first live step of the kernel's
// repair ranking over that prefix of u's table — or ok=false if none
// exists.
func (o *Overlay) repairHop(u, limit int) (next int, ok bool) {
	var stack [planStack]routing.Step
	t := o.table(u)
	for _, st := range routing.RankTo(nil, lowerBound(t, int32(limit)), stack[:0]) {
		if c := idspace.IndexAdd(u, int(t[st.Entry]), o.n); o.alive[c] {
			return c, true
		}
	}
	return 0, false
}

// Stabilize refines counter-clockwise pointers by the conventional
// neighborhood-maintenance rule the paper builds on ([22][20], Chord-style
// stabilization): each node asks its current counter-clockwise neighbor
// for the closest alive node that neighbor knows strictly between the two,
// and adopts it when one exists. Repair alone can leave a pointer
// "skipping" alive nodes when several large gaps open at once (the Repair
// message stalls at the first uncrossable gap); iterating stabilization
// walks each pointer back to the true nearest alive predecessor known to
// the ring. It returns the number of pointer refinements applied.
func (o *Overlay) Stabilize(maxRounds int) int {
	if maxRounds <= 0 {
		maxRounds = o.n
	}
	total := 0
	for round := 0; round < maxRounds; round++ {
		changed := 0
		for x := 0; x < o.n; x++ {
			if !o.alive[x] {
				continue
			}
			y := int(o.ccw[x])
			if y == x || !o.alive[y] {
				continue
			}
			// The closest alive node y knows strictly between itself
			// and x.
			if z, ok := o.repairHop(y, idspace.IndexDist(y, x, o.n)); ok {
				o.setCCW(x, z)
				changed++
			}
		}
		total += changed
		if changed == 0 {
			break
		}
	}
	return total
}

// BridgeGapsIdeal installs the end state the active-recovery protocol
// converges to, without simulating messages: every alive node's
// counter-clockwise pointer is set to its nearest alive counter-clockwise
// node, and the alive node just counter-clockwise of each gap of length
// >= k gains a routing entry across it. Large experiments use this fast
// path; recovery_test.go proves it equivalent to Repair.
func (o *Overlay) BridgeGapsIdeal() {
	for x := 0; x < o.n; x++ {
		if !o.alive[x] {
			continue
		}
		if o.alive[o.ccw[x]] && int(o.ccw[x]) != x {
			continue
		}
		y := o.NearestAliveCCW(x)
		if y < 0 {
			continue // x is the only alive node
		}
		o.setCCW(x, y)
		if idspace.IndexDist(y, x, o.n) > o.k && !o.HasEntry(y, x) {
			o.addExtraEntry(y, x)
		}
	}
}
