package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/overlay"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestTracedQueryE2E is the distributed-tracing acceptance test: one
// traced query crosses a live pooled-TCP hierarchy (trace context as the
// flagged binary frame prefix; the one-shot envelope field is covered by
// TestOneShotNodeAmongPooledE2E), with one injected fault forcing the
// root's alternate-child detour. The spans every node recorded must
// assemble into a single connected tree whose server-span sequence is
// exactly the query path, whose overlay segment matches the simulated
// route for the same (N, K, Seed), and which carries both the fault
// span and the numbered retry attempt. /debug/traces must serve it.
func TestTracedQueryE2E(t *testing.T) {
	const (
		nChildren = 12
		k         = 2
		seed      = 77
	)
	ctx := context.Background()

	// Rate 0: nodes never head-sample on their own; only the trace the
	// client forces below may record. That pins "spans exist" to
	// cross-node propagation working, not to local sampling luck.
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 99, Capacity: 1 << 12})
	plan := transport.NewFaultPlan(seed)

	pooled := transport.NewPooledTCP(transport.PoolConfig{
		DialTimeout: 300 * time.Millisecond,
		IOTimeout:   2 * time.Second,
	})
	t.Cleanup(func() { _ = pooled.Close() })

	mk := func(name, parentAddr string) *Node {
		t.Helper()
		addr := bindAddr(t, pooled)
		stacked, err := transport.NewStack(transport.WithBase(pooled), transport.WithAddr(addr),
			transport.WithFaults(plan), transport.WithTracing(tracer, name))
		if err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{
			Name: name, Addr: addr, ParentAddr: parentAddr,
			K: k, Q: 2, Seed: seed, CallTimeout: 2 * time.Second,
			Tracer: tracer,
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

	root := mk(".", "")
	children := make([]*Node, 0, nChildren)
	for i := 0; i < nChildren; i++ {
		c := mk(fmt.Sprintf("c%d", i), root.Addr())
		if err := c.Join(ctx); err != nil {
			t.Fatal(err)
		}
		children = append(children, c)
	}
	for _, c := range children {
		if err := c.BuildTable(ctx); err != nil {
			t.Fatal(err)
		}
	}
	byIndex := make(map[int]*Node, nChildren)
	indexOf := make(map[string]int, nChildren)
	for _, c := range children {
		byIndex[c.Index()] = c
		indexOf[c.Name()] = c.Index()
	}

	// Inject the fault: the root cannot reach the on-path child, so its
	// descend falls back to an alternate child (a numbered attempt) whose
	// sibling overlay detours to the destination.
	od := children[5]
	plan.Partition(root.Addr(), od.Addr(), true)

	// The test is the client: it forces sampling with a root span, like
	// hoursq -trace.
	req, err := wire.New(wire.TypeQuery, wire.Query{
		Target: od.Name(), Mode: wire.ModeHierarchical, TTL: 64, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	clientSpan := tracer.StartRoot("query", "client")
	clientSpan.SetAttr("target", od.Name())
	req.TC = clientSpan.Context()
	resp, err := pooled.Call(ctx, root.Addr(), req)
	clientSpan.Finish(err)
	if err != nil {
		t.Fatal(err)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Found {
		t.Fatalf("traced query failed: %s (path %v)", qr.Reason, qr.Path)
	}
	if len(qr.Path) < 3 {
		t.Fatalf("query path %v crossed %d nodes, want >= 3", qr.Path, len(qr.Path))
	}
	if qr.Path[0] != "." || qr.Path[len(qr.Path)-1] != od.Name() {
		t.Fatalf("query path %v, want root-first and %s-last", qr.Path, od.Name())
	}

	traceID := clientSpan.Context().TraceID
	spans := tracer.Store().Trace(traceID)
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the trace")
	}

	// One connected tree — exactly one root, no orphans — whose
	// server-span sequence is the hop sequence of the query's own path,
	// the root included.
	treeRoot := checkTraceTree(t, spans, qr.Path)
	if treeRoot.Span.Name != "query" || treeRoot.Span.Node != "client" {
		t.Fatalf("tree root is %s (%s), want the client span", treeRoot.Span.Name, treeRoot.Span.Node)
	}

	// The overlay segment (everything after the root's detour handoff)
	// matches the simulated route on an overlay built from the same
	// (N, K, Seed) — the live/sim equivalence the repo holds everywhere.
	alt := qr.Path[1]
	sim, err := overlay.New(overlay.Config{N: nChildren, K: k, Seed: seed, Design: overlay.Enhanced})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Route(indexOf[alt], indexOf[od.Name()], overlay.RouteOptions{TracePath: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != overlay.Delivered {
		t.Fatalf("sim route %s->%s outcome %v", alt, od.Name(), res.Outcome)
	}
	live := qr.Path[1:]
	if len(live) != len(res.Path) {
		t.Fatalf("overlay segment %v != sim route %v", live, res.Path)
	}
	for i, idx := range res.Path {
		if live[i] != byIndex[int(idx)].Name() {
			t.Fatalf("overlay hop %d: live %q != sim %q (live %v, sim %v)",
				i, live[i], byIndex[int(idx)].Name(), live, res.Path)
		}
	}

	// The injected fault is visible: the root's failed attempt on the
	// partitioned edge is a span with an error classification, and the
	// detour that followed is a numbered attempt >= 2.
	var faultSpan, retrySpan bool
	for _, s := range spans {
		if cls, ok := s.Attr("error_class"); ok && cls == "unreachable" && s.Err != "" {
			if peer, ok := s.Attr("peer"); ok && peer == od.Addr() {
				faultSpan = true
			}
		}
		if att, ok := s.Attr("attempt"); ok && att == "2" {
			retrySpan = true
		}
	}
	if !faultSpan {
		t.Error("no span records the injected fault (error_class=unreachable toward the partitioned peer)")
	}
	if !retrySpan {
		t.Error("no span records the detour attempt (attempt=2)")
	}

	// /debug/traces serves the collected trace, tree rendering included.
	srv := httptest.NewServer(trace.Handler(tracer))
	defer srv.Close()
	hr, err := http.Get(srv.URL + "/debug/traces?trace=" + trace.FormatID(traceID))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?trace=: %s\n%s", hr.Status, body)
	}
	var served struct {
		TraceID string            `json:"traceId"`
		Spans   []wire.SpanRecord `json:"spans"`
		Tree    string            `json:"tree"`
	}
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("/debug/traces JSON: %v\n%s", err, body)
	}
	if served.TraceID != trace.FormatID(traceID) || len(served.Spans) != len(spans) {
		t.Fatalf("served trace %s with %d spans, want %s with %d",
			served.TraceID, len(served.Spans), trace.FormatID(traceID), len(spans))
	}
	for _, hop := range qr.Path {
		name := hop
		if name == "" {
			name = "."
		}
		if !strings.Contains(served.Tree, "("+name+")") {
			t.Errorf("rendered tree missing hop %q:\n%s", name, served.Tree)
		}
	}
	lr, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	list, err := io.ReadAll(lr.Body)
	lr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if lr.StatusCode != http.StatusOK || !strings.Contains(string(list), trace.FormatID(traceID)) {
		t.Fatalf("/debug/traces listing (%s) missing the trace:\n%s", lr.Status, list)
	}
}
