package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// The topology and node parameters every live workload shares.
var liveFanouts = []int{16, 8, 2}

const (
	liveK = 2
	liveQ = 2
)

// liveTree is a live tree of node.Nodes built by the benchmark's own
// assembler. cluster.New hard-codes its Mem and its stacks, so span
// decorators cannot be slipped into it; this builds the same tree — same
// names, same creation order, same xrand.Derive(seed, i) node seeds, same
// join-then-build-tables sequence — over a Mem or pooled-TCP base, with
// the decorators in place (inert when rec is nil).
type liveTree struct {
	nodes  map[string]*node.Node
	order  []string // creation order, root first
	root   *node.Node
	client transport.Transport // what the harness reaches the root through
	pools  []*transport.PooledTCP
}

type assembleConfig struct {
	seed uint64
	tcp  bool          // loopback pooled TCP, one pool per node; else one shared Mem
	reg  *obs.Registry // shared by every node and pool
	rec  *recorder     // nil: untraced
}

func assemble(ctx context.Context, cfg assembleConfig) (*liveTree, error) {
	h := &liveTree{nodes: make(map[string]*node.Node)}
	var mem *transport.Mem
	if !cfg.tcp {
		mem = transport.NewMem()
	}
	// base returns the innermost transport for one more participant,
	// wrapped in the below-the-stack span decorator.
	base := func(pc transport.PoolConfig) transport.Transport {
		s := &spanned{inner: mem, rec: cfg.rec, callKind: spanBase, serveKind: spanServed}
		if cfg.tcp {
			p := transport.NewPooledTCP(pc)
			p.SetMetrics(cfg.reg)
			h.pools = append(h.pools, p)
			s.inner = p
		}
		return s
	}

	mk := func(name, parentAddr string) (*node.Node, error) {
		// A pooled listener cannot report its port back to a node that is
		// already configured, so reserve one first; a port lost in the gap
		// between release and Start is retried.
		for attempt := 0; ; attempt++ {
			addr := "mem://" + name
			if cfg.tcp {
				var err error
				if addr, err = freeLoopbackAddr(); err != nil {
					return nil, err
				}
			}
			stacked, err := transport.NewStack(
				transport.WithBase(base(transport.PoolConfig{})),
				transport.WithAddr(addr),
				transport.WithMetrics(cfg.reg),
			)
			if err != nil {
				return nil, err
			}
			nd, err := node.New(node.Config{
				Name:        name,
				Addr:        addr,
				ParentAddr:  parentAddr,
				K:           liveK,
				Q:           liveQ,
				Seed:        xrand.Derive(cfg.seed, uint64(len(h.order))).Uint64(),
				CallTimeout: 2 * time.Second,
				Metrics:     cfg.reg,
			}, &spanned{inner: stacked, rec: cfg.rec, callKind: spanStack, serveKind: spanHandler})
			if err != nil {
				return nil, err
			}
			if err := nd.Start(); err != nil {
				if cfg.tcp && attempt < 3 {
					p := h.pools[len(h.pools)-1]
					h.pools = h.pools[:len(h.pools)-1]
					_ = p.Close() // never dialled
					continue
				}
				return nil, err
			}
			h.nodes[nd.Name()] = nd
			h.order = append(h.order, nd.Name())
			return nd, nil
		}
	}

	fail := func(err error) (*liveTree, error) {
		h.stop()
		return nil, err
	}
	root, err := mk(".", "")
	if err != nil {
		return fail(err)
	}
	h.root = root
	type level struct {
		name string
		nd   *node.Node
	}
	frontier := []level{{nd: root}}
	for li, fanout := range liveFanouts {
		var next []level
		for _, parent := range frontier {
			for i := 0; i < fanout; i++ {
				childName := fmt.Sprintf("n%d-%d", li+1, i)
				if parent.name != "" {
					childName += "." + parent.name
				}
				nd, err := mk(childName, parent.nd.Addr())
				if err != nil {
					return fail(err)
				}
				if err := nd.Join(ctx); err != nil {
					return fail(fmt.Errorf("assemble: %s: %w", childName, err))
				}
				next = append(next, level{name: childName, nd: nd})
			}
		}
		frontier = next
	}
	for _, name := range h.order[1:] {
		if err := h.nodes[name].BuildTable(ctx); err != nil {
			return fail(fmt.Errorf("assemble: build table for %s: %w", name, err))
		}
	}
	// The harness is one more participant: the raw Mem, as cluster.Query
	// uses it, or its own pool with one connection per processor.
	h.client = base(transport.PoolConfig{MaxConnsPerPeer: runtime.GOMAXPROCS(0)})
	return h, nil
}

// freeLoopbackAddr reserves a loopback port by binding and releasing it.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("assemble: reserve port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("assemble: release port: %w", err)
	}
	return addr, nil
}

// query sends the lookup the way cluster.Query does — hierarchical mode
// from the root, TTL 4×size — through the harness's client transport.
func (h *liveTree) query(ctx context.Context, target string) (wire.QueryResult, error) {
	return sendQuery(ctx, h.client, h.root.Addr(), target, 4*len(h.nodes))
}

func sendQuery(ctx context.Context, tr transport.Transport, addr, target string, ttl int) (wire.QueryResult, error) {
	req := wire.Typed(wire.TypeQuery, &wire.Query{Target: target, Mode: wire.ModeHierarchical, TTL: ttl})
	req.From = "client"
	resp, err := tr.Call(ctx, addr, req)
	if err != nil {
		return wire.QueryResult{}, err
	}
	if resp.Type != wire.TypeQueryResult {
		return wire.QueryResult{}, fmt.Errorf("unexpected reply %s", resp.Type)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		return wire.QueryResult{}, err
	}
	return qr, nil
}

// stop shuts nodes down children first, then drains every pool.
func (h *liveTree) stop() {
	for i := len(h.order) - 1; i >= 0; i-- {
		_ = h.nodes[h.order[i]].Stop() // listeners close idempotently
	}
	for _, p := range h.pools {
		_ = p.Close() // draining close; nothing is in flight any more
	}
}
