// Command hoursq queries a live HOURS node over TCP.
//
//	hoursq -addr 127.0.0.1:7001 -target n2-1.n1-0
//
// The entry node can be any node in the hierarchy (§7 bootstrapping): if
// ancestors of the target are under attack, the query detours across the
// randomized overlays and still resolves.
//
// -trace stamps the query with a force-sampled distributed-trace
// context, collects the spans every visited node recorded (walking peer
// attributes breadth-first with trace_get RPCs), and renders the full
// cross-node span tree. Against nodes too old to record spans it falls
// back to the in-band hop trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hoursq:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hoursq", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7000", "entry node address")
		target  = fs.String("target", "", "name to resolve")
		ttl     = fs.Int("ttl", 256, "forwarding TTL")
		timeout = fs.Duration("timeout", 10*time.Second, "end-to-end timeout")
		verbose = fs.Bool("v", false, "print the forwarding path")
		traced  = fs.Bool("trace", false, "collect and render the cross-node span tree (falls back to the hop-by-hop trace)")
		stats   = fs.Bool("stats", false, "fetch the node's operational counters instead of querying")
		from    = fs.String("from", "hoursq", "client identity charged by the entry node's per-client admission control")
		codec   = fs.String("codec", "binary", "wire framing: binary speaks the multiplexed binary protocol, v1 the human-debuggable one-shot JSON framing (dial per call)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tcp transport.Transport
	switch *codec {
	case "v1":
		tcp = &transport.TCP{IOTimeout: *timeout}
	case "binary":
		p := transport.NewPooledTCP(transport.PoolConfig{IOTimeout: *timeout})
		defer func() { _ = p.Close() }()
		tcp = p
	default:
		return fmt.Errorf("unknown -codec %q (want binary or v1)", *codec)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if *stats {
		return fetchStats(ctx, tcp, *addr)
	}
	if *target == "" {
		fs.Usage()
		return fmt.Errorf("missing -target")
	}
	req := wire.Typed(wire.TypeQuery, &wire.Query{
		Target: strings.TrimSuffix(*target, "."),
		Mode:   wire.ModeHierarchical,
		TTL:    *ttl,
		Trace:  *traced,
	})
	req.From = *from
	// With -trace the client is the trace root: a force-sampled context
	// rides the query so every node's Traced layer records its part.
	var (
		qt   *trace.Tracer
		root *trace.ActiveSpan
	)
	if *traced {
		qt = trace.New(trace.Config{SampleRate: 1, Seed: uint64(time.Now().UnixNano()), Capacity: 16})
		root = qt.StartRoot("query", "hoursq")
		root.SetAttr("target", *target)
		root.SetAttr("peer", *addr)
		req.TC = root.Context()
	}
	start := time.Now()
	resp, err := tcp.Call(ctx, *addr, req)
	root.Finish(err)
	if err != nil {
		// An overload shed carries the server's backoff hint; surface it
		// so callers (and scripts) know when a retry is worthwhile.
		if hint := transport.RetryAfterHint(err); hint > 0 {
			return fmt.Errorf("%w (server overloaded; retry after %v)", err, hint)
		}
		return err
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		return err
	}
	if *traced {
		spans := collectTrace(ctx, tcp, *addr, root.Context().TraceID, qt.Store().Snapshot())
		if len(spans) > 1 {
			fmt.Printf("trace %s (%d spans)\n", trace.FormatID(root.Context().TraceID), len(spans))
			trace.RenderTree(os.Stdout, spans)
		} else {
			// v1 peer or tracing disabled server-side: in-band hops only.
			printTrace(os.Stdout, qr)
		}
	}
	if !qr.Found {
		return fmt.Errorf("not resolved after %d hops: %s", qr.Hops, qr.Reason)
	}
	fmt.Printf("%s = %s (%d hops, %v)\n", *target, qr.Answer, qr.Hops, time.Since(start).Round(time.Millisecond))
	if *verbose && !*traced {
		fmt.Printf("path: %s\n", strings.Join(qr.Path, " -> "))
	}
	return nil
}

// collectTrace gathers the distributed trace: starting from the entry
// node, it fetches every span the node stored for the trace, discovers
// further nodes from client spans' peer attributes, and walks them
// breadth-first. Seeded with the client's own spans; nodes that know
// nothing about the trace (v1 peers, no tracer) just answer empty.
func collectTrace(ctx context.Context, tr transport.Transport, entry string, traceID uint64, local []wire.SpanRecord) []wire.SpanRecord {
	seen := make(map[uint64]wire.SpanRecord, len(local))
	var order []uint64
	add := func(s wire.SpanRecord) {
		if _, ok := seen[s.SpanID]; !ok {
			seen[s.SpanID] = s
			order = append(order, s.SpanID)
		}
	}
	for _, s := range local {
		if s.TraceID == traceID {
			add(s)
		}
	}
	visited := map[string]bool{}
	queue := []string{entry}
	for len(queue) > 0 && len(visited) < 256 {
		addr := queue[0]
		queue = queue[1:]
		if addr == "" || visited[addr] {
			continue
		}
		visited[addr] = true
		req := wire.Typed(wire.TypeTraceGet, &wire.TraceGet{TraceID: traceID})
		resp, err := tr.Call(ctx, addr, req)
		if err != nil || resp.Type != wire.TypeTraceGetResult {
			continue // unreachable or pre-tracing peer: keep what we have
		}
		var res wire.TraceGetResult
		if resp.Decode(&res) != nil {
			continue
		}
		for _, s := range res.Spans {
			add(s)
			if peer, ok := s.Attr("peer"); ok {
				queue = append(queue, peer)
			}
		}
	}
	out := make([]wire.SpanRecord, 0, len(order))
	for _, id := range order {
		out = append(out, seen[id])
	}
	return out
}

// printTrace renders the per-hop records a traced query accumulated:
// one line per node visited, with the ring index the node holds in its
// sibling overlay, the forwarding mode the query arrived under, and the
// time the node spent before handing the query on.
func printTrace(w io.Writer, qr wire.QueryResult) {
	for i, h := range qr.HopTrace {
		name := h.Node
		if name == "" {
			name = "."
		}
		fmt.Fprintf(w, "hop %2d  %-24s index=%-4d mode=%-12s %v\n",
			i, name, h.Index, h.Mode, time.Duration(h.DurationMicros)*time.Microsecond)
	}
}

// fetchStats prints a node's operational counters.
func fetchStats(ctx context.Context, tcp transport.Transport, addr string) error {
	resp, err := tcp.Call(ctx, addr, wire.Message{Type: wire.TypeStats})
	if err != nil {
		return err
	}
	var st wire.Stats
	if err := resp.Decode(&st); err != nil {
		return err
	}
	fmt.Printf("node               %s (ring index %d, epoch %d)\n", st.Name, st.Index, st.Epoch)
	fmt.Printf("routing entries    %d\n", st.TableEntries)
	fmt.Printf("queries answered   %d\n", st.QueriesAnswered)
	fmt.Printf("queries forwarded  %d\n", st.QueriesForwarded)
	fmt.Printf("probes sent        %d\n", st.ProbesSent)
	fmt.Printf("repairs originated %d\n", st.RepairsOriginated)
	fmt.Printf("entries created    %d\n", st.EntriesCreated)
	return nil
}
