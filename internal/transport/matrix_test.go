package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TestDialerMatrix walks the supported wire matrix (DESIGN.md §8): each
// dialer (PooledTCP speaking the binary mux, TCP speaking one-shot JSON)
// against the shared listener (reached through either transport's
// Listen), for every request shape (plain, traced, deadline, both) and
// every outcome (answer, remote error, overload shed with a retry-after
// hint). The handler must see the same request whichever framing carried
// it, and the caller the same typed result.
func TestDialerMatrix(t *testing.T) {
	const (
		budget    = 500 * time.Millisecond
		ioTimeout = 30 * time.Second // far above budget: a lost deadline shows
		hint      = 35 * time.Millisecond
	)
	tc := wire.TraceContext{TraceID: 0xfeed, SpanID: 0xbeef, Flags: wire.FlagSampled}

	type observed struct {
		tc        wire.TraceContext
		dl        int64
		from      string
		remaining time.Duration
	}
	seen := make(chan observed, 1)
	handler := func(ctx context.Context, req wire.Message) (wire.Message, error) {
		var q wire.Query
		if err := req.Decode(&q); err != nil {
			return wire.Message{}, err
		}
		o := observed{tc: req.TC, dl: req.DL, from: req.From}
		if d, ok := ctx.Deadline(); ok {
			o.remaining = time.Until(d)
		}
		seen <- o
		switch q.Target {
		case "remote-error":
			return wire.Message{}, errors.New("boom")
		case "overloaded":
			return wire.Message{}, &OverloadedError{RetryAfter: hint}
		}
		return wire.Typed(wire.TypeQueryResult, &wire.QueryResult{Found: true, Answer: "ans:" + q.Target}), nil
	}

	srvReg, cliReg := obs.NewRegistry(), obs.NewRegistry()
	srv := NewPooledTCP(PoolConfig{IOTimeout: ioTimeout})
	srv.SetMetrics(srvReg)
	pooled := NewPooledTCP(PoolConfig{IOTimeout: ioTimeout})
	pooled.SetMetrics(cliReg)
	oneShot := &TCP{IOTimeout: ioTimeout}
	t.Cleanup(func() {
		_ = pooled.Close()
		_ = srv.Close()
	})

	listeners := map[string]string{}
	for name, tr := range map[string]Transport{"PooledTCP.Listen": srv, "TCP.Listen": oneShot} {
		closer, err := tr.Listen("127.0.0.1:0", handler)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = closer.Close() })
		listeners[name] = closer.(*PooledListener).Addr()
	}
	dialers := map[string]Transport{"PooledTCP": pooled, "TCP": oneShot}
	requests := []struct {
		name             string
		traced, deadline bool
	}{
		{"plain", false, false}, {"traced", true, false},
		{"deadline", false, true}, {"traced+deadline", true, true},
	}

	for lname, addr := range listeners {
		for dname, dialer := range dialers {
			for _, r := range requests {
				for _, outcome := range []string{"ok", "remote-error", "overloaded"} {
					name := fmt.Sprintf("%s/%s/%s/%s", lname, dname, r.name, outcome)
					t.Run(name, func(t *testing.T) {
						req := wire.Typed(wire.TypeQuery, &wire.Query{Target: outcome, TTL: 4})
						req.From = "client-7"
						ctx := context.Background()
						if r.traced {
							req.TC = tc
						}
						if r.deadline {
							var cancel context.CancelFunc
							ctx, cancel = context.WithTimeout(ctx, budget)
							defer cancel()
						}
						resp, err := dialer.Call(ctx, addr, req)

						o := <-seen
						if o.tc != req.TC {
							t.Errorf("handler saw trace context %+v, want %+v", o.tc, req.TC)
						}
						if o.from != "client-7" {
							t.Errorf("handler saw From %q", o.from)
						}
						if o.dl != 0 {
							t.Errorf("handler saw a raw wire budget DL=%d; it belongs in the context", o.dl)
						}
						if r.deadline {
							checkBudget(t, o.remaining, budget)
						} else if o.remaining <= budget {
							t.Errorf("handler budget %v without a client deadline, want the listener's IO timeout", o.remaining)
						}

						switch outcome {
						case "ok":
							if err != nil {
								t.Fatal(err)
							}
							var qr wire.QueryResult
							if err := resp.Decode(&qr); err != nil || qr.Answer != "ans:ok" {
								t.Errorf("result = %+v, %v", qr, err)
							}
						case "remote-error":
							if err == nil || !strings.Contains(err.Error(), "remote error: boom") ||
								errors.Is(err, ErrOverloaded) || errors.Is(err, ErrUnreachable) {
								t.Errorf("err = %v, want a plain remote error", err)
							}
						case "overloaded":
							if !errors.Is(err, ErrOverloaded) || RetryAfterHint(err) != hint {
								t.Errorf("err = %v (hint %v), want ErrOverloaded with hint %v", err, RetryAfterHint(err), hint)
							}
						}
					})
				}
			}
		}
	}

	// The pooled dialer held one mux connection per listener throughout,
	// and both sides counted their wire bytes and flushes.
	if got := cliReg.Counter("hours_pool_dials_total").Value(); got != int64(len(listeners)) {
		t.Errorf("pooled dials = %d, want one per listener (%d)", got, len(listeners))
	}
	if got := cliReg.Counter("hours_pool_conn_reuse_total").Value(); got == 0 {
		t.Error("pooled dialer never reused a connection")
	}
	for _, c := range []struct {
		reg  *obs.Registry
		side string
	}{{cliReg, "client"}, {srvReg, "server"}} {
		for _, name := range []string{"hours_codec_encode_bytes_total", "hours_codec_decode_bytes_total", "hours_batch_flushes_total"} {
			if c.reg.Counter(name, obs.L("side", c.side)).Value() == 0 {
				t.Errorf("%s{side=%q} = 0 after mux traffic", name, c.side)
			}
		}
	}
}

// TestTypedBodyOverMem pins the in-process transport: a Typed message
// delivered by Mem decodes correctly (deep-copied slices, no wire encode
// at all).
func TestTypedBodyOverMem(t *testing.T) {
	m := NewMem()
	_, err := m.Listen("a", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		var q wire.Query
		if err := req.Decode(&q); err != nil {
			return wire.Message{}, err
		}
		return wire.Typed(wire.TypeQueryResult, &wire.QueryResult{Found: true, Answer: "ans:" + q.Target}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	req := wire.Typed(wire.TypeQuery, &wire.Query{Target: "t.a", TTL: 2, Path: []string{"x"}})
	resp, err := m.Call(context.Background(), "a", req)
	if err != nil {
		t.Fatal(err)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Answer != "ans:t.a" {
		t.Errorf("answer = %q", qr.Answer)
	}
}
