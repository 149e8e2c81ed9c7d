package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TestPoolMetricsGoAwayDrain pins the hours_pool_* accounting across a
// graceful server restart: the listener's Close announces GoAway, the
// client's pooled connection drains, and the next call must retire it
// (hours_pool_conns_retired_total up, hours_pool_conns_open back down)
// and open a fresh connection — with the gauge ending at exactly the
// live connection count, not drifting.
func TestPoolMetricsGoAwayDrain(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPooledTCP(PoolConfig{IOTimeout: 2 * time.Second})
	p.SetMetrics(reg)
	defer p.Close()
	closer, err := p.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(*PooledListener).Addr()
	ctx := context.Background()

	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hours_pool_dials_total").Value(); got != 1 {
		t.Fatalf("dials after first call = %d, want 1", got)
	}
	if got := reg.Gauge("hours_pool_conns_open").Value(); got != 1 {
		t.Fatalf("conns_open after first call = %d, want 1", got)
	}

	// Graceful shutdown: GoAway reaches the client and the conn drains.
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	closer2, err := p.Listen(addr, echoHandler)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer closer2.Close()
	time.Sleep(20 * time.Millisecond) // let the read loop observe GoAway

	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatalf("call after graceful restart: %v", err)
	}
	if got := reg.Counter("hours_pool_conns_retired_total").Value(); got < 1 {
		t.Errorf("conns_retired after GoAway = %d, want >= 1", got)
	}
	// Dial accounting: the replacement connection is either a fresh
	// acquire-time dial or a transparent redial, never neither.
	dials := reg.Counter("hours_pool_dials_total").Value()
	redials := reg.Counter("hours_pool_redials_total").Value()
	if dials < 2 {
		t.Errorf("dials after restart = %d, want >= 2 (redials %d)", dials, redials)
	}
	if got := reg.Gauge("hours_pool_conns_open").Value(); got != 1 {
		t.Errorf("conns_open after restart = %d, want 1 (retired conn still counted?)", got)
	}
}

// TestPoolMetricsBrokenConnRetire is the abrupt counterpart: the server
// speaks the mux protocol for one request and then severs the TCP
// connection with no GoAway. The client's conn dies mid-pool; the next
// call must retire it and the open-conns gauge must return to the true
// count.
func TestPoolMetricsBrokenConnRetire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// One-request mux server: hello, serve a single frame, slam shut.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if err := wire.ReadHello(c); err != nil {
					return
				}
				if err := wire.WriteHello(c); err != nil {
					return
				}
				kind, id, _, _, err := wire.ReadMuxFrame(c, nil)
				if err != nil || kind != wire.FrameRequest {
					return
				}
				resp, _ := wire.AppendMuxFrame(nil, wire.FrameResponse, id, wire.Message{Type: wire.TypeProbeResult})
				_, _ = c.Write(resp)
				// No GoAway: the close is abrupt, as after a crash.
			}(conn)
		}
	}()

	reg := obs.NewRegistry()
	p := NewPooledTCP(PoolConfig{IOTimeout: 2 * time.Second})
	p.SetMetrics(reg)
	defer p.Close()
	addr := ln.Addr().String()
	ctx := context.Background()

	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // read loop hits the abrupt EOF
	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatalf("call after abrupt break: %v", err)
	}

	if got := reg.Counter("hours_pool_dials_total").Value(); got < 2 {
		t.Errorf("dials = %d, want >= 2 (fresh conn after the break)", got)
	}
	// Both conns end up severed by the server, so once the read loops
	// observe the breaks every conn is retired and the open gauge settles
	// at the true count: zero. Retired always balances opens — the gauge
	// never drifts negative.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("hours_pool_conns_retired_total").Value() >= 2 &&
			reg.Gauge("hours_pool_conns_open").Value() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("hours_pool_conns_retired_total").Value(); got != 2 {
		t.Errorf("conns_retired after both breaks = %d, want 2", got)
	}
	if got := reg.Gauge("hours_pool_conns_open").Value(); got != 0 {
		t.Errorf("conns_open = %d, want 0 once every broken conn retired", got)
	}
}
