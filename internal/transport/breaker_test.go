package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// breakerClock is a hand-advanced wall clock for deterministic cooldowns.
type breakerClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *breakerClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *breakerClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// moodyTransport answers per-call from a programmable mood: overloaded
// rejections while sick, successes while healthy.
type moodyTransport struct {
	mu    sync.Mutex
	sick  bool
	calls int
}

func (m *moodyTransport) Listen(addr string, h Handler) (io.Closer, error) {
	return nil, fmt.Errorf("moody: no listen")
}

func (m *moodyTransport) Call(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	if m.sick {
		return wire.Message{}, fmt.Errorf("call %s: %w", addr, &OverloadedError{RetryAfter: 10 * time.Millisecond})
	}
	return wire.Message{Type: wire.TypeProbeResult}, nil
}

func (m *moodyTransport) setSick(s bool) {
	m.mu.Lock()
	m.sick = s
	m.mu.Unlock()
}

func (m *moodyTransport) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func testBreaker(reg *obs.Registry) (*Breaker, *moodyTransport, *breakerClock) {
	clk := &breakerClock{now: time.Unix(1000, 0)}
	m := &moodyTransport{}
	b := Break(m, BreakerPolicy{
		Threshold:        3,
		Cooldown:         time.Second,
		HalfOpenProbes:   2,
		SuccessesToClose: 2,
		Now:              clk.Now,
	}, reg)
	return b, m, clk
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	reg := obs.NewRegistry()
	b, m, _ := testBreaker(reg)
	ctx := context.Background()
	req := wire.Message{Type: wire.TypeProbe}

	m.setSick(true)
	for i := 0; i < 3; i++ {
		if _, err := b.Call(ctx, "peer", req); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("attempt %d err = %v, want ErrOverloaded", i, err)
		}
	}
	if got := b.State("peer"); got != "open" {
		t.Fatalf("state after threshold failures = %q, want open", got)
	}
	// Open: fast-fail without touching the peer.
	before := m.callCount()
	_, err := b.Call(ctx, "peer", req)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker err = %v, want ErrBreakerOpen", err)
	}
	if m.callCount() != before {
		t.Error("open breaker still forwarded the call")
	}
	if Retryable(Classify(err)) {
		t.Error("ErrBreakerOpen must not be retryable")
	}
	if reg.Counter("hours_breaker_trips_total").Value() != 1 {
		t.Error("trip counter not incremented")
	}
	if reg.Counter("hours_breaker_fastfails_total").Value() != 1 {
		t.Error("fastfail counter not incremented")
	}
	if reg.Gauge("hours_breaker_open_peers").Value() != 1 {
		t.Error("open-peers gauge not raised")
	}
}

func TestBreakerHalfOpensAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	b, m, clk := testBreaker(reg)
	ctx := context.Background()
	req := wire.Message{Type: wire.TypeProbe}

	m.setSick(true)
	for i := 0; i < 3; i++ {
		_, _ = b.Call(ctx, "peer", req)
	}
	m.setSick(false)

	// Before the cooldown: still fast-failing even though the peer healed.
	if _, err := b.Call(ctx, "peer", req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("pre-cooldown err = %v, want ErrBreakerOpen", err)
	}
	clk.advance(time.Second)
	// Cooldown elapsed: the next calls are half-open probes; after
	// SuccessesToClose of them the breaker closes.
	if _, err := b.Call(ctx, "peer", req); err != nil {
		t.Fatalf("first probe err = %v", err)
	}
	if got := b.State("peer"); got != "half-open" {
		t.Fatalf("state after one good probe = %q, want half-open", got)
	}
	if _, err := b.Call(ctx, "peer", req); err != nil {
		t.Fatalf("second probe err = %v", err)
	}
	if got := b.State("peer"); got != "closed" {
		t.Fatalf("state after recovery = %q, want closed", got)
	}
	if reg.Counter("hours_breaker_half_opens_total").Value() != 1 {
		t.Error("half-open counter not incremented")
	}
	if reg.Counter("hours_breaker_recoveries_total").Value() != 1 {
		t.Error("recovery counter not incremented")
	}
	if reg.Gauge("hours_breaker_open_peers").Value() != 0 {
		t.Error("open-peers gauge not released")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, m, clk := testBreaker(nil)
	ctx := context.Background()
	req := wire.Message{Type: wire.TypeProbe}

	m.setSick(true)
	for i := 0; i < 3; i++ {
		_, _ = b.Call(ctx, "peer", req)
	}
	clk.advance(time.Second)
	// The probe finds the peer still sick: straight back to open, full
	// cooldown restarts.
	if _, err := b.Call(ctx, "peer", req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe err = %v, want ErrOverloaded", err)
	}
	if got := b.State("peer"); got != "open" {
		t.Fatalf("state after failed probe = %q, want open", got)
	}
	if _, err := b.Call(ctx, "peer", req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("post-reopen err = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerHalfOpenBoundsConcurrentProbes(t *testing.T) {
	clk := &breakerClock{now: time.Unix(1000, 0)}
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	slow := &hangingTransport{release: release, started: started}
	b := Break(slow, BreakerPolicy{
		Threshold: 1, Cooldown: time.Second, HalfOpenProbes: 2,
		SuccessesToClose: 4, Now: clk.Now,
	}, nil)
	ctx := context.Background()
	req := wire.Message{Type: wire.TypeProbe}

	slow.fail.Store(true)
	_, _ = b.Call(ctx, "peer", req) // trips (threshold 1)
	slow.fail.Store(false)
	clk.advance(time.Second)

	// Launch more would-be probes than the half-open budget; the excess
	// must fail fast while the first two hang in flight.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Call(ctx, "peer", req)
		}(i)
	}
	<-started
	<-started
	for i := 2; i < 4; i++ {
		_, errs[i] = b.Call(ctx, "peer", req)
		if !errors.Is(errs[i], ErrBreakerOpen) {
			t.Errorf("excess probe %d err = %v, want ErrBreakerOpen", i, errs[i])
		}
	}
	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Errorf("hedged probe %d err = %v", i, errs[i])
		}
	}
}

// hangingTransport blocks calls until released (signals each start);
// while fail is set it errors immediately with a timeout-class error.
type hangingTransport struct {
	release chan struct{}
	started chan struct{}
	fail    boolFlag
}

type boolFlag struct {
	mu sync.Mutex
	v  bool
}

func (f *boolFlag) Store(v bool) { f.mu.Lock(); f.v = v; f.mu.Unlock() }
func (f *boolFlag) Load() bool   { f.mu.Lock(); defer f.mu.Unlock(); return f.v }

func (h *hangingTransport) Listen(addr string, hd Handler) (io.Closer, error) {
	return nil, fmt.Errorf("hanging: no listen")
}

func (h *hangingTransport) Call(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	if h.fail.Load() {
		return wire.Message{}, fmt.Errorf("call %s: %w", addr, context.DeadlineExceeded)
	}
	h.started <- struct{}{}
	<-h.release
	return wire.Message{Type: wire.TypeProbeResult}, nil
}

func TestBreakerPeersAreIndependent(t *testing.T) {
	b, m, _ := testBreaker(nil)
	ctx := context.Background()
	req := wire.Message{Type: wire.TypeProbe}
	m.setSick(true)
	for i := 0; i < 3; i++ {
		_, _ = b.Call(ctx, "sick-peer", req)
	}
	m.setSick(false)
	if _, err := b.Call(ctx, "healthy-peer", req); err != nil {
		t.Fatalf("healthy peer affected by sick peer's breaker: %v", err)
	}
	if got := b.State("healthy-peer"); got != "closed" {
		t.Errorf("healthy peer state = %q", got)
	}
}

func TestOverloadedErrorIdentityAndHint(t *testing.T) {
	err := fmt.Errorf("node x: %w", &OverloadedError{RetryAfter: 40 * time.Millisecond})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("wrapped OverloadedError must match ErrOverloaded")
	}
	if got := RetryAfterHint(err); got != 40*time.Millisecond {
		t.Fatalf("hint = %v, want 40ms", got)
	}
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Fatalf("hint on plain error = %v, want 0", got)
	}
	if Classify(err) != ClassOverloaded {
		t.Fatalf("Classify = %v, want overloaded", Classify(err))
	}
}

// TestRetryHonorsRetryAfterHint checks the retry layer waits the server's
// hinted interval (not the generic jitter schedule) before re-sending a
// shed request, and that overload rejections are retryable even for
// non-idempotent types like Query.
func TestRetryHonorsRetryAfterHint(t *testing.T) {
	reg := obs.NewRegistry()
	const hint = 30 * time.Millisecond
	s := &scriptedTransport{failures: 1, err: fmt.Errorf("call a: %w", &OverloadedError{RetryAfter: hint})}
	r := Retry(s, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: 2 * time.Microsecond, Seed: 1}, reg)
	start := time.Now()
	// Query is non-idempotent — only the overload class may retry it.
	_, err := r.Call(context.Background(), "a", wire.Message{Type: wire.TypeQuery})
	if err != nil {
		t.Fatalf("retry after overload shed did not recover: %v", err)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Errorf("recovered in %v, want >= the %v server hint", elapsed, hint)
	}
	if s.callCount() != 2 {
		t.Errorf("calls = %d, want 2", s.callCount())
	}
	if reg.Counter("hours_retry_after_honored_total", obs.L("type", string(wire.TypeQuery))).Value() != 1 {
		t.Error("hinted-retry counter not incremented")
	}
}

// TestRetryNonIdempotentNonOverloadStillSingleShot pins the satellite
// boundary: overload rejections retry for every type, but other
// retryable classes still get exactly one attempt for non-idempotent
// requests.
func TestRetryNonIdempotentNonOverloadStillSingleShot(t *testing.T) {
	s := &scriptedTransport{failures: 5, err: fmt.Errorf("call a: %w", ErrUnreachable)}
	r := Retry(s, fastPolicy(4), nil)
	_, err := r.Call(context.Background(), "a", wire.Message{Type: wire.TypeQuery})
	if err == nil {
		t.Fatal("expected failure")
	}
	if s.callCount() != 1 {
		t.Errorf("non-idempotent unreachable call attempts = %d, want 1", s.callCount())
	}
}

// TestStackOrderWithBreaker checks NewStack assembles
// Retry→Breaker→Traced→…→base so every retry attempt consults the
// breaker.
func TestStackOrderWithBreaker(t *testing.T) {
	st, err := NewStack(WithBase(NewMem()),
		WithRetry(RetryPolicy{MaxAttempts: 2}), WithBreaker(BreakerPolicy{Threshold: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	layers := Layers(st)
	var order []string
	for _, l := range layers {
		switch l.(type) {
		case *Retrier:
			order = append(order, "retry")
		case *Breaker:
			order = append(order, "breaker")
		}
	}
	// (Instrument with a nil registry is a pass-through, so only the two
	// decorators appear in the walk.)
	if len(order) != 2 || order[0] != "retry" || order[1] != "breaker" {
		t.Errorf("layer order = %v, want [retry breaker]", order)
	}
}

// TestBreakerEndToEndOverMem drives a breaker through a real listener
// that sheds everything, checking the typed overload error round-trips
// the wire and trips the breaker.
func TestBreakerEndToEndOverMem(t *testing.T) {
	mem := NewMem()
	_, err := mem.Listen("mem://sick", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		return wire.Message{}, fmt.Errorf("node sick: %w", &OverloadedError{RetryAfter: 15 * time.Millisecond})
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := &breakerClock{now: time.Unix(0, 0)}
	b := Break(mem, BreakerPolicy{Threshold: 2, Cooldown: time.Second, Now: clk.Now}, nil)
	ctx := context.Background()
	req := wire.Message{Type: wire.TypeQuery}
	for i := 0; i < 2; i++ {
		_, err := b.Call(ctx, "mem://sick", req)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("call %d err = %v, want ErrOverloaded", i, err)
		}
		if hint := RetryAfterHint(err); hint != 15*time.Millisecond {
			t.Fatalf("call %d hint = %v, want 15ms", i, hint)
		}
	}
	if _, err := b.Call(ctx, "mem://sick", req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
}
