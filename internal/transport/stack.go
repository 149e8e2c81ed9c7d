package transport

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// stackConfig is what the StackOptions fill in: which layers NewStack
// assembles and how.
type stackConfig struct {
	base       Transport      // innermost transport; nil builds a PooledTCP from pool
	pool       PoolConfig     // parameterizes the pooled base when base is nil
	addr       string         // the fault layer's call source; default span name
	faults     *FaultPlan     // nil: no fault layer
	retry      *RetryPolicy   // nil: no retry layer
	breaker    *BreakerPolicy // nil: no breaker layer
	metrics    *obs.Registry  // nil: no instrumentation
	tracer     *trace.Tracer  // nil: no tracing layer
	traceLocal string         // names this process in spans; see WithTracing
}

// StackOption configures one aspect of a transport stack built by
// NewStack. Options compose in any order; absent layers are skipped.
type StackOption func(*stackConfig)

// WithBase sets the innermost transport (e.g. *Mem for in-process
// clusters). Without it, NewStack builds a pooled TCP base.
func WithBase(t Transport) StackOption {
	return func(c *stackConfig) { c.base = t }
}

// WithPool parameterizes the pooled TCP base built when no WithBase is
// given. A later WithBatching overrides the batch fields.
func WithPool(cfg PoolConfig) StackOption {
	return func(c *stackConfig) { c.pool = cfg }
}

// WithAddr sets the local address the fault layer binds as its call
// source (directed partitions need a source identity); required with
// WithFaults.
func WithAddr(addr string) StackOption {
	return func(c *stackConfig) { c.addr = addr }
}

// WithFaults injects the plan's faults into every call.
func WithFaults(p *FaultPlan) StackOption {
	return func(c *stackConfig) { c.faults = p }
}

// WithRetry retries idempotent calls per the policy.
func WithRetry(p RetryPolicy) StackOption {
	return func(c *stackConfig) { c.retry = &p }
}

// WithBreaker adds per-peer circuit breaking: calls to a peer that keeps
// answering overloaded (or timing out) fail fast with ErrBreakerOpen
// until a cooldown passes (see Break).
func WithBreaker(p BreakerPolicy) StackOption {
	return func(c *stackConfig) { c.breaker = &p }
}

// WithMetrics registers every layer's series in reg: RPC client/server
// instrumentation, retry counters, fault-injection counters, and the
// pool's connection metrics.
func WithMetrics(reg *obs.Registry) StackOption {
	return func(c *stackConfig) { c.metrics = reg }
}

// WithTracing adds the distributed-tracing layer: outbound calls become
// child spans of the caller's active span and inbound requests open
// server spans (see Trace). local names this process in recorded spans;
// empty defaults to the stack's Addr, "-" leaves spans unnamed (shared
// multi-node transports, where each node annotates its own name).
func WithTracing(tr *trace.Tracer, local string) StackOption {
	return func(c *stackConfig) {
		c.tracer = tr
		c.traceLocal = local
	}
}

// WithBatching tunes the pooled base's write coalescing: linger bounds
// the adaptive flush delay (negative disables lingering, zero keeps
// DefaultBatchLinger) and maxBytes the batch size (zero keeps 64 KiB).
// Only meaningful without WithBase.
func WithBatching(linger time.Duration, maxBytes int) StackOption {
	return func(c *stackConfig) {
		c.pool.BatchLinger = linger
		c.pool.BatchMaxBytes = maxBytes
	}
}

// NewStack assembles the canonical decorator chain
//
//	Retry → Breaker → Traced → Faulty → Instrument → base (pooled TCP
//	or the transport given via WithBase)
//
// outermost first. The order is deliberate: retries must traverse the
// fault layer so chaos runs exercise them; the breaker sits inside retry
// so every physical attempt consults it (once a peer trips, the
// remaining retry attempts fail fast instead of stacking more timeouts
// onto a sick peer); the tracing layer sits inside retry so each
// physical attempt is its own span, and outside the fault layer so
// injected faults surface inside spans; and the instrument layer sits
// innermost so RPC metrics count physical attempts (the retry layer's
// own series account for the logical-vs-physical difference). Layers
// whose option is absent are skipped, so the chain is exactly as thick
// as asked for.
func NewStack(opts ...StackOption) (*Stacked, error) {
	var cfg stackConfig
	for _, o := range opts {
		o(&cfg)
	}
	base := cfg.base
	if base == nil {
		p := NewPooledTCP(cfg.pool)
		p.SetMetrics(cfg.metrics)
		base = p
	}
	t := Instrument(base, cfg.metrics) // nil registry: pass-through
	if cfg.faults != nil {
		if cfg.addr == "" {
			return nil, fmt.Errorf("transport: stack with faults needs WithAddr (the fault layer's call source)")
		}
		t = cfg.faults.Bind(cfg.addr, t)
	}
	if cfg.tracer != nil {
		local := cfg.traceLocal
		switch local {
		case "":
			local = cfg.addr
		case "-":
			local = ""
		}
		t = Trace(t, cfg.tracer, local)
	}
	if cfg.breaker != nil {
		t = Break(t, *cfg.breaker, cfg.metrics)
	}
	if cfg.retry != nil {
		t = Retry(t, *cfg.retry, cfg.metrics)
	}
	return &Stacked{Transport: t, base: base}, nil
}

// Stacked is an assembled transport chain. It implements Transport by
// delegating to the outermost layer and io.Closer by closing the base
// (a pooled transport drains; other bases close if they support it).
type Stacked struct {
	Transport
	base Transport
}

var _ Transport = (*Stacked)(nil)
var _ io.Closer = (*Stacked)(nil)

// Underlying returns the outermost decorator, so Unwrap walks through a
// Stacked into the chain it assembled.
func (s *Stacked) Underlying() Transport { return s.Transport }

// Base returns the innermost transport of the stack.
func (s *Stacked) Base() Transport { return s.base }

// Close tears the base transport down (drains a pooled base); bases
// without a Close are a no-op.
func (s *Stacked) Close() error {
	if c, ok := s.base.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Layers returns the decorator chain of t from outermost to innermost,
// including t itself: every layer exposing Underlying is walked, so the
// result covers Stacked, Retrier, Breaker, Faulty, and Instrumented
// wrappers down to the base transport.
func Layers(t Transport) []Transport {
	var out []Transport
	for {
		out = append(out, t)
		u, ok := t.(interface{ Underlying() Transport })
		if !ok {
			return out
		}
		t = u.Underlying()
	}
}

// Unwrap strips every decorator off t — it walks the whole chain through
// Stacked, Retrier, Faulty, and Instrumented layers — returning the
// innermost transport. Callers needing a concrete transport (e.g. *Mem
// for DoS suppression, *PooledTCP to drain the pool) type-assert the
// result.
func Unwrap(t Transport) Transport {
	ls := Layers(t)
	return ls[len(ls)-1]
}
