package node

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestPooledHierarchy is the all-pooled baseline: every node shares one
// pooled transport, so intra-hierarchy RPCs ride multiplexed conns.
func TestPooledHierarchy(t *testing.T) {
	ctx := context.Background()
	pooled := transport.NewPooledTCP(transport.PoolConfig{
		DialTimeout: 300 * time.Millisecond,
		IOTimeout:   2 * time.Second,
	})
	t.Cleanup(func() { _ = pooled.Close() })

	mk := func(name, parentAddr string, seed uint64) *Node {
		t.Helper()
		nd, err := New(Config{
			Name: name, Addr: bindAddr(t, pooled), ParentAddr: parentAddr,
			K: 1, Q: 2, Seed: seed, CallTimeout: 2 * time.Second,
		}, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Stop() })
		return nd
	}

	root := mk(".", "", 1)
	var kids []*Node
	for i := 0; i < 3; i++ {
		nd := mk(fmt.Sprintf("c%d", i), root.Addr(), uint64(i+2))
		if err := nd.Join(ctx); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, nd)
	}
	for _, nd := range kids {
		if err := nd.BuildTable(ctx); err != nil {
			t.Fatal(err)
		}
	}
	q, err := wire.New(wire.TypeQuery, wire.Query{Target: "c2", Mode: wire.ModeHierarchical, TTL: 16})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := pooled.Call(ctx, root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Found {
		t.Fatalf("all-pooled query failed: %+v", qr)
	}
}
