package transport

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/wire"
)

// tracedPair builds a Mem transport wrapped with tracing on both sides
// and a server that answers probes.
func tracedPair(t *testing.T, tracer *trace.Tracer, local string) Transport {
	t.Helper()
	mem := NewMem()
	tr := Trace(mem, tracer, local)
	l, err := tr.Listen("srv", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		if req.Type == "fail" {
			return wire.Message{}, errors.New("handler failed")
		}
		if !req.TC.IsZero() {
			return wire.Message{}, errors.New("handler saw raw trace context")
		}
		return wire.Message{Type: wire.TypeProbeResult}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return tr
}

func TestTracedCallCreatesLinkedSpans(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 1})
	tr := tracedPair(t, tracer, "n0")

	root := tracer.StartRoot("query", "client")
	ctx := trace.ContextWithSpan(context.Background(), root)
	if _, err := tr.Call(ctx, "srv", wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	root.Finish(nil)

	spans := tracer.Store().Trace(root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3 (root, rpc, serve)", len(spans))
	}
	byName := map[string]wire.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rpc, ok := byName["rpc probe"]
	if !ok {
		t.Fatalf("no rpc span in %+v", spans)
	}
	if rpc.ParentID != root.Context().SpanID {
		t.Fatal("rpc span not parented on root")
	}
	if peer, _ := rpc.Attr("peer"); peer != "srv" {
		t.Fatalf("rpc peer attr = %q", peer)
	}
	serve, ok := byName["serve probe"]
	if !ok {
		t.Fatalf("no serve span in %+v", spans)
	}
	if serve.ParentID != rpc.SpanID {
		t.Fatal("serve span not parented on rpc span")
	}
	if serve.Node != "n0" {
		t.Fatalf("serve node = %q", serve.Node)
	}
}

func TestTracedCallErrorClassAttr(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 2})
	tr := Trace(NewMem(), tracer, "n0") // nothing listening: unreachable

	root := tracer.StartRoot("query", "client")
	ctx := trace.ContextWithSpan(context.Background(), root)
	if _, err := tr.Call(ctx, "nowhere", wire.Message{Type: wire.TypeProbe}); err == nil {
		t.Fatal("call to unbound address succeeded")
	}
	root.Finish(nil)

	spans := tracer.Store().Trace(root.Context().TraceID)
	var rpc *wire.SpanRecord
	for i := range spans {
		if spans[i].Name == "rpc probe" {
			rpc = &spans[i]
		}
	}
	if rpc == nil {
		t.Fatalf("no rpc span in %+v", spans)
	}
	if rpc.Err == "" {
		t.Fatal("failed rpc span has no error")
	}
	if class, _ := rpc.Attr("error_class"); class != "unreachable" {
		t.Fatalf("error_class = %q, want unreachable", class)
	}
}

func TestTracedUnsampledPropagatesWithoutRecording(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 3})
	mem := NewMem()
	tr := Trace(mem, tracer, "n0")
	var seenTC wire.TraceContext
	inner, err := mem.Listen("peek", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		seenTC = req.TC
		return wire.Message{Type: wire.TypeProbeResult}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()

	utc := wire.TraceContext{TraceID: 99, SpanID: 7}
	ctx := trace.ContextWithUnsampled(context.Background(), utc)
	if _, err := tr.Call(ctx, "peek", wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	if seenTC != utc {
		t.Fatalf("propagated TC = %+v, want %+v", seenTC, utc)
	}
	if got := tracer.Store().Seq(); got != 0 {
		t.Fatalf("unsampled call recorded %d spans", got)
	}
}

func TestTracedListenHeadDecision(t *testing.T) {
	// A sampling Listen side decides for context-less requests; with
	// rate 1 every request gets a server root span.
	tracer := trace.New(trace.Config{SampleRate: 1, Seed: 4})
	tr := tracedPair(t, tracer, "head")
	if _, err := tr.Call(context.Background(), "srv", wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Store().Snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1 server root", len(spans))
	}
	if spans[0].Name != "serve probe" || spans[0].ParentID != 0 || spans[0].Node != "head" {
		t.Fatalf("span = %+v", spans[0])
	}
}

func TestTracedListenRateZeroFastPath(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 5})
	tr := tracedPair(t, tracer, "n0")
	if _, err := tr.Call(context.Background(), "srv", wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	if got := tracer.Store().Seq(); got != 0 {
		t.Fatalf("rate-0 transport recorded %d spans", got)
	}
}

func TestTracedServerSpanCarriesHandlerError(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 6})
	tr := tracedPair(t, tracer, "n0")
	root := tracer.StartRoot("query", "client")
	ctx := trace.ContextWithSpan(context.Background(), root)
	if _, err := tr.Call(ctx, "srv", wire.Message{Type: "fail"}); err == nil {
		t.Fatal("handler error did not surface")
	}
	root.Finish(nil)
	var serve *wire.SpanRecord
	spans := tracer.Store().Snapshot()
	for i := range spans {
		if spans[i].Name == "serve fail" {
			serve = &spans[i]
		}
	}
	if serve == nil || serve.Err == "" {
		t.Fatalf("server span missing error: %+v", spans)
	}
}

func TestRetryAttemptAnnotation(t *testing.T) {
	// First attempt fails transiently, second succeeds: the retry span
	// must carry retry=2.
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 7})
	mem := NewMem()
	calls := 0
	l, err := mem.Listen("flaky", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		calls++
		if calls == 1 {
			return wire.Message{}, ErrTransient
		}
		return wire.Message{Type: wire.TypeProbeResult}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr := Retry(Trace(mem, tracer, "n0"), RetryPolicy{MaxAttempts: 3, BaseBackoff: 1}, nil)

	root := tracer.StartRoot("probe loop", "client")
	ctx := trace.ContextWithSpan(context.Background(), root)
	if _, err := tr.Call(ctx, "flaky", wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	root.Finish(nil)

	var first, second *wire.SpanRecord
	spans := tracer.Store().Snapshot()
	for i := range spans {
		if spans[i].Name != "rpc probe" {
			continue
		}
		if _, ok := spans[i].Attr("retry"); ok {
			second = &spans[i]
		} else {
			first = &spans[i]
		}
	}
	if first == nil || second == nil {
		t.Fatalf("want two rpc spans (plain + retry), got %+v", spans)
	}
	if class, _ := first.Attr("error_class"); class != "transient" {
		t.Fatalf("first attempt error_class = %q", class)
	}
	if retry, _ := second.Attr("retry"); retry != "2" {
		t.Fatalf("retry attr = %q, want 2", retry)
	}
	if second.Err != "" {
		t.Fatalf("second attempt span has error %q", second.Err)
	}
}

func TestAttemptAndSuspicionContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := AttemptFromContext(ctx); ok {
		t.Fatal("empty ctx has attempt")
	}
	ctx2 := WithAttempt(ctx, 3)
	if k, ok := AttemptFromContext(ctx2); !ok || k != 3 {
		t.Fatalf("attempt = %d,%v", k, ok)
	}
	ctx3 := WithPeerSuspicion(ctx, 2)
	if s, ok := PeerSuspicionFromContext(ctx3); !ok || s != 2 {
		t.Fatalf("suspicion = %d,%v", s, ok)
	}
}

func TestStackWithTracerOrder(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 8})
	plan := NewFaultPlan(1)
	st, err := NewStack(WithBase(NewMem()), WithAddr("a"), WithFaults(plan),
		WithRetry(RetryPolicy{}), WithTracing(tracer, ""))
	if err != nil {
		t.Fatal(err)
	}
	layers := Layers(st)
	// Stacked → Retrier → Traced → Faulty → Instrumented? (no registry:
	// instrument is skipped) → Mem.
	var order []string
	for _, l := range layers {
		switch l.(type) {
		case *Retrier:
			order = append(order, "retry")
		case *Traced:
			order = append(order, "traced")
		case *Faulty:
			order = append(order, "faulty")
		case *Instrumented:
			order = append(order, "instrument")
		}
	}
	want := []string{"retry", "traced", "faulty"}
	if len(order) != len(want) {
		t.Fatalf("layer order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("layer order = %v, want %v", order, want)
		}
	}
}
