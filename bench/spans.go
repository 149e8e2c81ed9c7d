package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Span layers. A traced query is one "query" span (the harness's call to
// the root) whose descendants alternate client and server sides of every
// RPC the hierarchy made for it:
//
//	query → base → served → handler → stack → base → served → handler → …
//
// "stack" opens above a node's transport.NewStack chain and "base" below
// it, so stack − base is the client-side decorators' own time; "served"
// opens where the base hands a request to the chain's server side and
// "handler" where the chain hands it to the node, so served − handler is
// the server-side decorators' own time, base − served is the base
// transport (Mem dispatch, or codec + coalescer + pool + syscalls), and
// handler − outbound stack spans is the node's own handling.
const (
	spanQuery = iota
	spanStack
	spanBase
	spanServed
	spanHandler
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{"query", "stack", "base", "served", "handler"}

// span is one recorded interval. Query is the sequence number of the
// harness query it belongs to — the identifier all spans of one request
// share; Parent indexes the recorder's span slice (-1 for a query span).
type span struct {
	Kind   int8
	Err    bool
	Query  int32
	Parent int32
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// recorder keeps spans in memory. The traced pass has exactly one query
// in flight and every RPC is synchronous (Mem runs the handler on the
// caller's goroutine; over TCP the caller blocks while the server
// goroutine handles), so spans nest strictly in time and the parent of a
// new span is whatever span is open — one stack for the whole process,
// no identifier has to cross the wire.
type recorder struct {
	epoch time.Time
	limit int
	// on gates recording: set-up and warm-up run through the decorators
	// too and must leave no spans.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	open  []int32
	query int32
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, spans: make([]span, 0, limit+64)}
}

// full reports whether the recorder reached its span budget; the traced
// pass stops there so that the spans kept are the spans measured.
func (r *recorder) full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans) >= r.limit
}

func (r *recorder) begin(kind int8) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Kind: kind, Query: r.query, Parent: parent, Start: now})
	r.open = append(r.open, id)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32, err error) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Err = err != nil
	r.open = r.open[:len(r.open)-1]
	r.mu.Unlock()
}

// beginQuery opens the root span of the next harness query.
func (r *recorder) beginQuery() int32 {
	r.mu.Lock()
	r.query++
	r.mu.Unlock()
	return r.begin(spanQuery)
}

// spanned decorates a Transport: Call opens a span of callKind around the
// inner call, and Listen wraps the handler in a span of serveKind. A nil
// recorder makes both pass-through, so the assembler builds the same
// chain traced or not.
type spanned struct {
	inner     transport.Transport
	rec       *recorder
	callKind  int8
	serveKind int8
}

var _ transport.Transport = (*spanned)(nil)

// Underlying keeps transport.Layers/Unwrap walking through the decorator,
// so node.Suppress still finds the Mem base and node.New still sees the
// chain's Instrumented layer.
func (s *spanned) Underlying() transport.Transport { return s.inner }

func (s *spanned) Call(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	if s.rec == nil || !s.rec.on.Load() {
		return s.inner.Call(ctx, addr, req)
	}
	id := s.rec.begin(s.callKind)
	resp, err := s.inner.Call(ctx, addr, req)
	s.rec.end(id, err)
	return resp, err
}

func (s *spanned) Listen(addr string, h transport.Handler) (io.Closer, error) {
	if s.rec == nil {
		return s.inner.Listen(addr, h)
	}
	return s.inner.Listen(addr, func(ctx context.Context, req wire.Message) (wire.Message, error) {
		if !s.rec.on.Load() {
			return h(ctx, req)
		}
		id := s.rec.begin(s.serveKind)
		resp, err := h(ctx, req)
		s.rec.end(id, err)
		return resp, err
	})
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	queries int
	spans   int
	totalNs int64               // Σ query span durations
	selfNs  [numSpanKinds]int64 // Σ self time by span kind
	count   [numSpanKinds]int64 // spans by kind
	failed  [numSpanKinds]int64 // spans that ended in an error, by kind
}

// summarize computes self times: a span's duration minus its children's.
// Spans nest strictly, so children never overlap each other.
func summarize(spans []span) traceSummary {
	var s traceSummary
	s.spans = len(spans)
	childNs := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			childNs[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range spans {
		d := sp.End - sp.Start
		s.selfNs[sp.Kind] += d - childNs[i]
		s.count[sp.Kind]++
		if sp.Err {
			s.failed[sp.Kind]++
		}
		if sp.Kind == spanQuery {
			s.queries++
		}
	}
	return s
}

// traceFile is the on-disk form of a traced pass: one row per span,
// [kind, query, parent, start_ns, end_ns, err], kinds named once.
type traceFile struct {
	Workload string     `json:"workload"`
	Kinds    []string   `json:"kinds"`
	Columns  []string   `json:"columns"`
	Spans    [][6]int64 `json:"spans"`
}

func writeTrace(path, workload string, spans []span) error {
	tf := traceFile{
		Workload: workload,
		Kinds:    spanKindNames[:],
		Columns:  []string{"kind", "query", "parent", "start_ns", "end_ns", "err"},
		Spans:    make([][6]int64, len(spans)),
	}
	for i, sp := range spans {
		e := int64(0)
		if sp.Err {
			e = 1
		}
		tf.Spans[i] = [6]int64{int64(sp.Kind), int64(sp.Query), int64(sp.Parent), sp.Start, sp.End, e}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(&tf); err != nil {
		f.Close()
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return nil
}

// readTrace loads a trace file back into spans, so the reported layer
// times are computed from what was written, not from a private copy.
func readTrace(path string) ([]span, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, fmt.Errorf("trace file %s: %w", path, err)
	}
	spans := make([]span, len(tf.Spans))
	for i, row := range tf.Spans {
		if row[0] < 0 || row[0] >= numSpanKinds || row[2] >= int64(i) {
			return nil, fmt.Errorf("trace file %s: malformed span %d", path, i)
		}
		spans[i] = span{Kind: int8(row[0]), Query: int32(row[1]), Parent: int32(row[2]),
			Start: row[3], End: row[4], Err: row[5] != 0}
	}
	return spans, nil
}
