package node

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// fixture spins up a root with n live children, joined and with built
// tables.
type fixture struct {
	tr       *transport.Mem
	root     *Node
	children []*Node
}

func newFixture(t *testing.T, n, k, q int, seed uint64) *fixture {
	t.Helper()
	tr := transport.NewMem()
	mk := func(name, parentAddr string, s uint64) *Node {
		nd, err := New(Config{
			Name: name, Addr: "mem://" + name, ParentAddr: parentAddr,
			K: k, Q: q, Seed: s, CallTimeout: time.Second,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Stop() })
		return nd
	}
	f := &fixture{tr: tr, root: mk(".", "", seed)}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		c := mk(fmt.Sprintf("c%d", i), f.root.Addr(), seed+uint64(i)+1)
		if err := c.Join(ctx); err != nil {
			t.Fatal(err)
		}
		f.children = append(f.children, c)
	}
	for _, c := range f.children {
		if err := c.BuildTable(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestNewValidation(t *testing.T) {
	tr := transport.NewMem()
	if _, err := New(Config{}, tr); err == nil {
		t.Error("missing addr: want error")
	}
	if _, err := New(Config{Addr: "a"}, nil); err == nil {
		t.Error("nil transport: want error")
	}
	if _, err := New(Config{Addr: "a", K: -1}, tr); err == nil {
		t.Error("K<0: want error")
	}
}

func TestJoinAdmission(t *testing.T) {
	f := newFixture(t, 5, 2, 2, 1)
	// Duplicate label refused.
	dup, err := New(Config{Name: "c0", Addr: "mem://dup", ParentAddr: f.root.Addr()}, f.tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dup.Stop() })
	if err := dup.Join(context.Background()); err == nil {
		t.Error("duplicate join: want error")
	}
	// Root cannot join anything.
	if err := f.root.Join(context.Background()); err == nil {
		t.Error("root join: want error")
	}
}

func TestBuildTableStructure(t *testing.T) {
	f := newFixture(t, 20, 3, 2, 2)
	for _, c := range f.children {
		if c.Index() < 0 || c.Index() >= 20 {
			t.Errorf("%s index = %d", c.Name(), c.Index())
		}
		if c.TableSize() < 3 {
			t.Errorf("%s table size %d < k", c.Name(), c.TableSize())
		}
		if c.CCWName() == "" || c.CCWName() == c.Name() {
			t.Errorf("%s ccw = %q", c.Name(), c.CCWName())
		}
	}
	// Indices must be distinct.
	seen := make(map[int]bool)
	for _, c := range f.children {
		if seen[c.Index()] {
			t.Fatalf("duplicate ring index %d", c.Index())
		}
		seen[c.Index()] = true
	}
}

func TestSingletonOverlay(t *testing.T) {
	f := newFixture(t, 1, 2, 2, 3)
	c := f.children[0]
	if c.TableSize() != 0 {
		t.Errorf("singleton child table size = %d, want 0", c.TableSize())
	}
	// Maintenance on a singleton overlay must not panic or loop.
	c.MaintainOnce(context.Background())
}

func TestDirectQueryAnswer(t *testing.T) {
	f := newFixture(t, 4, 2, 2, 4)
	q, err := wire.New(wire.TypeQuery, wire.Query{Target: "c2", Mode: wire.ModeHierarchical, TTL: 16})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.tr.Call(context.Background(), f.root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Found || qr.Answer != "mem://c2" {
		t.Errorf("query result = %+v", qr)
	}
	if len(qr.Path) != 2 || qr.Path[0] != "." || qr.Path[1] != "c2" {
		t.Errorf("path = %v", qr.Path)
	}
}

func TestQueryTTLExhaustion(t *testing.T) {
	f := newFixture(t, 4, 2, 2, 5)
	q, err := wire.New(wire.TypeQuery, wire.Query{Target: "c2", Mode: wire.ModeHierarchical, TTL: 0})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.tr.Call(context.Background(), f.root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Found || !strings.Contains(qr.Reason, "ttl") {
		t.Errorf("result = %+v, want ttl exhaustion", qr)
	}
}

func TestSuppressionRefusesRequests(t *testing.T) {
	f := newFixture(t, 3, 2, 2, 6)
	f.children[0].Suppress(true)
	_, err := f.tr.Call(context.Background(), f.children[0].Addr(), wire.Message{Type: wire.TypeProbe})
	if err == nil {
		t.Error("suppressed node answered a probe")
	}
	f.children[0].Suppress(false)
	if _, err := f.tr.Call(context.Background(), f.children[0].Addr(), wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Errorf("unsuppressed node unreachable: %v", err)
	}
}

func TestMaintainRepairsCCWPointer(t *testing.T) {
	f := newFixture(t, 10, 2, 2, 7)
	byIndex := make(map[int]*Node)
	for _, c := range f.children {
		byIndex[c.Index()] = c
	}
	victim := byIndex[4]
	successor := byIndex[5]
	if successor.CCWName() != victim.Name() {
		t.Fatalf("precondition: %s ccw = %s, want %s", successor.Name(), successor.CCWName(), victim.Name())
	}
	victim.Suppress(true)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for _, c := range f.children {
			c.MaintainOnce(ctx)
		}
	}
	if got := successor.CCWName(); got != byIndex[3].Name() {
		t.Errorf("%s ccw after repair = %s, want %s", successor.Name(), got, byIndex[3].Name())
	}
}

func TestMaintainBridgesLargeGap(t *testing.T) {
	// Suppress a run of k+2 consecutive nodes: the successor must send a
	// Repair message and end up pointing at the node before the gap.
	f := newFixture(t, 12, 2, 2, 8)
	byIndex := make(map[int]*Node)
	for _, c := range f.children {
		byIndex[c.Index()] = c
	}
	for i := 3; i <= 6; i++ {
		byIndex[i].Suppress(true)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		for _, c := range f.children {
			c.MaintainOnce(ctx)
		}
	}
	if got := byIndex[7].CCWName(); got != byIndex[2].Name() {
		t.Errorf("gap successor ccw = %s, want %s", got, byIndex[2].Name())
	}
}

func TestChildSampleBounds(t *testing.T) {
	f := newFixture(t, 3, 2, 5, 9)
	// Ask the root for more children than exist: get all of them.
	req, err := wire.New(wire.TypeChildSample, wire.ChildSample{Count: 10})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.tr.Call(context.Background(), f.root.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	var cs wire.ChildSampleResult
	if err := resp.Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Children) != 3 {
		t.Errorf("sample = %d children, want 3", len(cs.Children))
	}
	// Invalid count rejected.
	bad, err := wire.New(wire.TypeChildSample, wire.ChildSample{Count: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.tr.Call(context.Background(), f.root.Addr(), bad); err == nil {
		t.Error("count=0: want error")
	}
}

func TestUnknownMessageType(t *testing.T) {
	f := newFixture(t, 2, 1, 1, 10)
	_, err := f.tr.Call(context.Background(), f.root.Addr(), wire.Message{Type: "bogus"})
	if err == nil {
		t.Error("unknown type: want error")
	}
}

func TestStopIdempotent(t *testing.T) {
	tr := transport.NewMem()
	nd, err := New(Config{Name: "x", Addr: "mem://x", ProbePeriod: 5 * time.Millisecond}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestOverTCPEndToEnd(t *testing.T) {
	// The same node code over real sockets: a root and three children on
	// loopback, a query, and a DoS detour.
	tcp := &transport.TCP{DialTimeout: 300 * time.Millisecond, IOTimeout: 2 * time.Second}
	ctx := context.Background()

	mkTCP := func(name, parentAddr string, seed uint64) (*Node, string) {
		t.Helper()
		// Bind first to learn the port, then configure the node with it.
		probe, err := tcp.Listen("127.0.0.1:0", func(ctx context.Context, m wire.Message) (wire.Message, error) {
			return wire.Message{}, fmt.Errorf("placeholder")
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.(*transport.PooledListener).Addr()
		if err := probe.Close(); err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{
			Name: name, Addr: addr, ParentAddr: parentAddr,
			K: 1, Q: 2, Seed: seed, CallTimeout: 2 * time.Second,
		}, tcp)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Stop() })
		return nd, addr
	}

	root, rootAddr := mkTCP(".", "", 1)
	_ = root
	var kids []*Node
	for i := 0; i < 3; i++ {
		nd, _ := mkTCP(fmt.Sprintf("c%d", i), rootAddr, uint64(i+2))
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
	q, err := wire.New(wire.TypeQuery, wire.Query{Target: "c1", Mode: wire.ModeHierarchical, TTL: 16})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tcp.Call(ctx, rootAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Found {
		t.Fatalf("TCP query failed: %+v", qr)
	}
}
