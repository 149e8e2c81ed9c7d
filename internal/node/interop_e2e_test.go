package node

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/overlay"
	"repro/internal/transport"
	"repro/internal/wire"
)

// slowServeTransport delays every inbound request before invoking the
// real handler, modeling a node that is slow to schedule work. The
// delay runs under the handler's context, so a propagated deadline that
// expires during the wait is visible to the handler on entry.
type slowServeTransport struct {
	transport.Transport
	delay atomic.Int64 // nanoseconds; 0 serves immediately
}

func (s *slowServeTransport) Listen(addr string, h transport.Handler) (io.Closer, error) {
	return s.Transport.Listen(addr, func(ctx context.Context, m wire.Message) (wire.Message, error) {
		if d := time.Duration(s.delay.Load()); d > 0 {
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		return h(ctx, m)
	})
}

// checkTraceTree asserts the spans of one trace form a single connected
// tree (one root, no orphans, every span in it) whose "serve query"
// spans, in start order, sit on exactly the nodes of the query path.
func checkTraceTree(t *testing.T, spans []wire.SpanRecord, path []string) *trace.TreeNode {
	t.Helper()
	roots := trace.BuildTree(spans)
	if len(roots) != 1 {
		t.Fatalf("trace has %d roots, want 1 connected tree", len(roots))
	}
	total, orphans := 0, 0
	var walk func(*trace.TreeNode)
	walk = func(tn *trace.TreeNode) {
		total++
		if tn.Orphan {
			orphans++
		}
		for _, c := range tn.Children {
			walk(c)
		}
	}
	walk(roots[0])
	if orphans != 0 || total != len(spans) {
		t.Fatalf("tree holds %d spans (%d orphans), store has %d", total, orphans, len(spans))
	}
	var serve []wire.SpanRecord
	for _, s := range spans {
		if s.Name == "serve query" {
			serve = append(serve, s)
		}
	}
	sort.Slice(serve, func(i, j int) bool { return serve[i].StartUnixNano < serve[j].StartUnixNano })
	if len(serve) != len(path) {
		t.Fatalf("%d server spans, path has %d hops: %v", len(serve), len(path), path)
	}
	for i, s := range serve {
		if s.Node != path[i] {
			t.Fatalf("server span %d on %q, path hop is %q (path %v)", i, s.Node, path[i], path)
		}
	}
	return roots[0]
}

// bindAddr reserves a loopback address through tr's own listener.
func bindAddr(t *testing.T, tr transport.Transport) string {
	t.Helper()
	probe, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, m wire.Message) (wire.Message, error) {
		return wire.Message{}, fmt.Errorf("placeholder")
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.(*transport.PooledListener).Addr()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestOneShotNodeAmongPooledE2E is the wire-matrix acceptance test
// (DESIGN.md §8): one live hierarchy in which every third child dials
// one-shot JSON (transport.TCP) while the root and the other children
// dial the binary mux (transport.PooledTCP); everyone listens on the
// shared listener. The one-shot nodes must join, answer and forward like
// any other; every query must return the identical result whichever
// dialer the client uses; every live route must match the simulated
// route for the same (N, K, Seed); a traced query forwarded by a
// one-shot node must still assemble one connected trace tree; and a
// client's deadline budget must survive both framings and shed the work
// at hop 2.
func TestOneShotNodeAmongPooledE2E(t *testing.T) {
	const (
		nChildren = 9
		k         = 2
		seed      = 41
	)
	ctx := context.Background()
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 7, Capacity: 1 << 12})
	plan := transport.NewFaultPlan(seed) // no faults until the trace subtest partitions an edge

	oneShot := &transport.TCP{DialTimeout: 300 * time.Millisecond, IOTimeout: 5 * time.Second}
	pooled := transport.NewPooledTCP(transport.PoolConfig{
		DialTimeout: 300 * time.Millisecond, IOTimeout: 5 * time.Second,
	})
	t.Cleanup(func() { _ = pooled.Close() })
	// The one-shot nodes serve through a wrapper the deadline subtest
	// slows down.
	slowOneShot := &slowServeTransport{Transport: oneShot}

	mk := func(base transport.Transport, name, parentAddr string, reg *obs.Registry) *Node {
		t.Helper()
		addr := bindAddr(t, base)
		stacked, err := transport.NewStack(transport.WithBase(base), transport.WithAddr(addr),
			transport.WithFaults(plan), transport.WithTracing(tracer, name))
		if err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{
			Name: name, Addr: addr, ParentAddr: parentAddr,
			K: k, Q: 2, Seed: seed, CallTimeout: 5 * time.Second,
			Tracer: tracer, Metrics: reg,
		}, stacked)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Stop() })
		return nd
	}

	root := mk(pooled, ".", "", nil)
	children := make([]*Node, 0, nChildren)
	dialsOneShot := make(map[string]bool, nChildren)
	regOf := make(map[string]*obs.Registry, nChildren)
	for i := 0; i < nChildren; i++ {
		name := fmt.Sprintf("c%d", i)
		base := transport.Transport(pooled)
		if i%3 == 0 {
			base, dialsOneShot[name] = slowOneShot, true
		}
		regOf[name] = obs.NewRegistry()
		c := mk(base, name, root.Addr(), regOf[name])
		if err := c.Join(ctx); err != nil {
			t.Fatalf("join %s (one-shot dialer: %v): %v", name, dialsOneShot[name], err)
		}
		children = append(children, c)
	}
	for _, c := range children {
		if err := c.BuildTable(ctx); err != nil {
			t.Fatalf("build table %s: %v", c.Name(), err)
		}
	}
	byIndex := make(map[int]*Node, nChildren)
	indexOf := make(map[string]int, nChildren)
	for _, c := range children {
		byIndex[c.Index()] = c
		indexOf[c.Name()] = c.Index()
	}

	query := func(ctx context.Context, tr transport.Transport, target string, tc wire.TraceContext) (wire.QueryResult, error) {
		req := wire.Typed(wire.TypeQuery, &wire.Query{
			Target: target, Mode: wire.ModeHierarchical, TTL: 64, Trace: true,
		})
		req.TC = tc
		resp, err := tr.Call(ctx, root.Addr(), req)
		if err != nil {
			return wire.QueryResult{}, err
		}
		var qr wire.QueryResult
		err = resp.Decode(&qr)
		return qr, err
	}

	t.Run("same answers and sim-equivalent routes from both dialers", func(t *testing.T) {
		sim, err := overlay.New(overlay.Config{N: nChildren, K: k, Seed: seed, Design: overlay.Enhanced})
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range children {
			ref, err := query(ctx, oneShot, target.Name(), wire.TraceContext{})
			if err != nil {
				t.Fatalf("query %s via one-shot: %v", target.Name(), err)
			}
			if !ref.Found {
				t.Fatalf("query %s not found: %s (path %v)", target.Name(), ref.Reason, ref.Path)
			}
			got, err := query(ctx, pooled, target.Name(), wire.TraceContext{})
			if err != nil {
				t.Fatalf("query %s via pooled: %v", target.Name(), err)
			}
			if got.Found != ref.Found || got.Answer != ref.Answer ||
				got.Hops != ref.Hops || !reflect.DeepEqual(got.Path, ref.Path) {
				t.Fatalf("pooled client disagrees with one-shot client on %s:\none-shot: %+v\npooled:   %+v",
					target.Name(), ref, got)
			}
			// The live overlay segment (after the root's handoff) must match
			// the simulated route for the same (N, K, Seed).
			entry := ref.Path[1]
			res, err := sim.Route(indexOf[entry], indexOf[target.Name()], overlay.RouteOptions{TracePath: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != overlay.Delivered {
				t.Fatalf("sim route %s->%s outcome %v", entry, target.Name(), res.Outcome)
			}
			live := ref.Path[1:]
			if len(live) != len(res.Path) {
				t.Fatalf("overlay segment %v != sim route %v for %s", live, res.Path, target.Name())
			}
			for i, idx := range res.Path {
				if live[i] != byIndex[int(idx)].Name() {
					t.Fatalf("overlay hop %d: live %q != sim %q (live %v, sim %v)",
						i, live[i], byIndex[int(idx)].Name(), live, res.Path)
				}
			}
		}
	})

	// Healthy routes are root → target. Cutting the root off from a
	// target forces its alternate-child detour through the sibling
	// overlay; a one-shot-dialing node on that detour received the query
	// on the shared listener and forwarded it over one-shot framing, so
	// the trace context crosses both encodings.
	t.Run("one connected trace tree through a one-shot forwarder", func(t *testing.T) {
		forwarders := 0
		for _, target := range children {
			plan.Partition(root.Addr(), target.Addr(), true)
			clientSpan := tracer.StartRoot("query", "client")
			qr, err := query(ctx, pooled, target.Name(), clientSpan.Context())
			clientSpan.Finish(err)
			plan.Partition(root.Addr(), target.Addr(), false)
			if err != nil || !qr.Found {
				t.Fatalf("traced detour query for %s failed: %v %s", target.Name(), err, qr.Reason)
			}
			for _, hop := range qr.Path[1 : len(qr.Path)-1] {
				if dialsOneShot[hop] {
					forwarders++
				}
			}
			spans := tracer.Store().Trace(clientSpan.Context().TraceID)
			checkTraceTree(t, spans, qr.Path)
		}
		if forwarders == 0 {
			t.Fatal("no detour was forwarded by a one-shot-dialing node; pick another seed")
		}
	})

	// One-shot client → pooled root → slow one-shot-dialing child: the
	// budget rides the JSON envelope into the root and the mux deadline
	// prefix out of it. The child is too slow to start the work inside
	// the propagated budget, so it sheds instead of serving, and the shed
	// is visible in its metrics. Without propagation the child would
	// happily burn its 5s IO timeout on work nobody is waiting for.
	t.Run("deadline sheds at hop 2", func(t *testing.T) {
		const victim = "c0"
		shed := regOf[victim].Counter("hours_overload_shed_total", obs.L("reason", "deadline"))
		if got := shed.Value(); got != 0 {
			t.Fatalf("deadline sheds before the query = %d", got)
		}
		slowOneShot.delay.Store(int64(900 * time.Millisecond)) // far past the budget, inside every IO timeout
		defer slowOneShot.delay.Store(0)
		qctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
		defer cancel()
		if qr, err := query(qctx, oneShot, victim, wire.TraceContext{}); err == nil && qr.Found {
			t.Fatalf("query served despite a spent budget at hop 2: %+v", qr)
		}
		// The shed happens after the client's deadline fires, so wait out
		// the child's serving delay before asserting the counter.
		deadline := time.Now().Add(3 * time.Second)
		for shed.Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("child never counted a deadline shed")
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}
