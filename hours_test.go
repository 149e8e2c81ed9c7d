package hours

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quickstart does: build a hierarchy, protect it, attack the path to a
// destination, and watch queries keep delivering.
func TestFacadeEndToEnd(t *testing.T) {
	tree, err := GenerateHierarchy([]LevelSpec{
		{Prefix: "tld", Fanout: 10},
		{Prefix: "org", Fanout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(tree, SystemConfig{K: 3, Q: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dst, ok := tree.Lookup("org2.tld4")
	if !ok {
		t.Fatal("destination missing")
	}
	camp, err := TopDownPathAttack(dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := camp.Execute(sys); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for i := 0; i < 20; i++ {
		res, err := sys.QueryNode(dst, QueryOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != QueryDelivered {
			t.Fatalf("query %d: %v", i, res.Outcome)
		}
	}
}

func TestFacadeOverlayAndAnalysis(t *testing.T) {
	ov, err := NewOverlay(OverlayConfig{N: 100, Design: EnhancedDesign, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ov.Route(3, 60, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != RouteDelivered {
		t.Errorf("route = %+v", res)
	}
	p, err := NeighborAttackSuccess(200, 5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 1 {
		t.Errorf("Eq.(2) = %v", p)
	}
}

func TestFacadeChordBaseline(t *testing.T) {
	ring, err := NewChordRing(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ring.HoldersOf(0)); got != 6 {
		t.Errorf("holders = %d, want log2(64)", got)
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := NewCluster(context.Background(), ClusterConfig{Fanouts: []int{4, 2}, K: 2, Q: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	res, err := c.Query(context.Background(), "n2-1.n1-3")
	if err != nil || !res.Found {
		t.Fatalf("live query: %v %+v", err, res)
	}
}

// TestFacadeErrorTaxonomy pins the exported error classification across
// both socket wire encodings: a typed overload rejection thrown by a
// remote handler must match hours.ErrOverloaded via errors.Is and
// surface its backoff hint through hours.RetryAfter, whether it crossed
// the v1 one-shot JSON envelope or the v2 multiplexed framing.
func TestFacadeErrorTaxonomy(t *testing.T) {
	const hint = 40 * time.Millisecond
	shed := func(ctx context.Context, req wire.Message) (wire.Message, error) {
		return wire.Message{}, &transport.OverloadedError{RetryAfter: hint}
	}
	req, err := wire.New(wire.TypeQuery, wire.Query{Target: "x"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("shed call succeeded")
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("errors.Is(%v, ErrOverloaded) = false", err)
		}
		if after, ok := RetryAfter(err); !ok || after != hint {
			t.Fatalf("RetryAfter = %v, %v, want %v, true", after, ok, hint)
		}
	}

	t.Run("v1 envelope", func(t *testing.T) {
		tr := &transport.TCP{}
		ln, err := tr.Listen("127.0.0.1:0", shed)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		_, err = tr.Call(context.Background(), ln.(*transport.PooledListener).Addr(), req)
		check(t, err)
	})
	t.Run("v2 mux", func(t *testing.T) {
		p := transport.NewPooledTCP(transport.PoolConfig{})
		defer p.Close()
		ln, err := p.Listen("127.0.0.1:0", shed)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		_, err = p.Call(context.Background(), ln.(*transport.PooledListener).Addr(), req)
		check(t, err)
	})

	if after, ok := RetryAfter(errors.New("plain failure")); ok || after != 0 {
		t.Errorf("RetryAfter(plain) = %v, %v, want 0, false", after, ok)
	}
	breaker := errors.Join(errors.New("call n: "), ErrBreakerOpen)
	if !errors.Is(breaker, ErrBreakerOpen) {
		t.Error("wrapped ErrBreakerOpen must match via errors.Is")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 18 {
		t.Errorf("experiments = %d, want 18 (11 paper artifacts + 7 ablations)", len(Experiments()))
	}
	tab, err := ReproduceExperiment("table-design", ExperimentOptions{Seed: 1, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() == 0 {
		t.Error("empty design table")
	}
	_, err = ReproduceExperiment("nope", ExperimentOptions{})
	var unknown *UnknownExperimentError
	if err == nil {
		t.Error("unknown experiment: want error")
	} else if !errors.As(err, &unknown) {
		t.Errorf("error type = %T", err)
	}
}
