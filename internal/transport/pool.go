package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ErrClosed is returned by calls on a pooled transport after Close.
var ErrClosed = errors.New("transport: pooled transport closed")

// PoolConfig parameterizes the pooled, multiplexed TCP transport. The
// zero value gets sensible defaults.
type PoolConfig struct {
	// MaxConnsPerPeer bounds the persistent connections kept per
	// destination address (default 4).
	MaxConnsPerPeer int
	// MaxInflightPerConn bounds the concurrently pipelined requests per
	// connection (default 32). MaxConnsPerPeer × MaxInflightPerConn is
	// the hard cap on concurrent calls per peer; excess callers queue.
	MaxInflightPerConn int
	// IdleTimeout evicts connections that carried no request for this
	// long (default 60s). The server side grants idle connections twice
	// this before hanging up, so the client evicts first.
	IdleTimeout time.Duration
	// DialTimeout bounds connection establishment; zero means 2s.
	DialTimeout time.Duration
	// IOTimeout bounds each request/response exchange; zero means 5s.
	IOTimeout time.Duration
	// BatchLinger bounds the adaptive write-coalescing linger per
	// connection (see wire.Coalescer): zero means DefaultBatchLinger, a
	// negative value disables lingering while keeping natural batching.
	BatchLinger time.Duration
	// BatchMaxBytes flushes a batch once it reaches this size; zero means
	// 64 KiB.
	BatchMaxBytes int
}

// DefaultBatchLinger is the default ceiling of the adaptive per-flush
// linger on batched connections. 50µs measured best on the loopback
// echo benchmark (BenchmarkTCPCall pooled/c64): enough to collect a
// pipelined burst into one flush, short enough to stay off the
// round-trip critical path — 250µs there costs more latency than the
// saved syscalls repay.
const DefaultBatchLinger = 50 * time.Microsecond

// withDefaults fills zero fields.
func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxConnsPerPeer <= 0 {
		c.MaxConnsPerPeer = 4
	}
	if c.MaxInflightPerConn <= 0 {
		c.MaxInflightPerConn = 32
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 5 * time.Second
	}
	if c.BatchLinger == 0 {
		c.BatchLinger = DefaultBatchLinger
	} else if c.BatchLinger < 0 {
		c.BatchLinger = 0
	}
	if c.BatchMaxBytes <= 0 {
		c.BatchMaxBytes = 64 << 10
	}
	return c
}

// batch returns the per-connection coalescer parameters.
func (c PoolConfig) batch() batchSettings {
	return batchSettings{linger: c.BatchLinger, maxBytes: c.BatchMaxBytes}
}

// peerPool is the bounded connection set for one destination address.
// The semaphore caps concurrent calls at MaxConnsPerPeer ×
// MaxInflightPerConn; holding a token guarantees (by pigeonhole) that
// either a listed conn has spare in-flight capacity or a conn slot is
// free to dial.
type peerPool struct {
	sem   chan struct{}
	mu    sync.Mutex
	conns []*muxConn
}

// PooledTCP is a Transport over persistent, multiplexed TCP connections:
// a bounded per-peer pool of connections, concurrent request pipelining
// with per-request response demultiplexing, idle eviction, and
// retire-and-redial of broken connections. It dials the binary mux
// protocol only: a peer that does not ack the preface is ErrUnreachable,
// and nothing is remembered per address — a slow or failed handshake
// never degrades later calls (DESIGN.md §8). Close drains in-flight
// calls before tearing the pool down.
//
// Its Listen side is the shared listener (see listener.go), which also
// answers one-shot clients.
type PooledTCP struct {
	cfg PoolConfig

	mu      sync.Mutex
	peers   map[string]*peerPool
	closed  bool
	stop    chan struct{}
	janitor bool

	calls sync.WaitGroup // in-flight Call tracking, for draining Close

	// bg tracks every background goroutine the pool spawns — the idle
	// janitor, dials, and connection read loops — so Close can await
	// their exit instead of leaking them. baseCtx parents the dials;
	// cancelBg aborts ones still in flight at Close.
	bg       sync.WaitGroup
	baseCtx  context.Context
	cancelBg context.CancelFunc

	// allConns registers every live connection, including ones detached
	// from their peer list (GoAway-drained, mid-retire): their read loops
	// outlive the listing, so Close must find and close them here.
	connMu   sync.Mutex
	allConns map[*muxConn]struct{}

	m atomic.Pointer[poolMetrics] // published by SetMetrics
}

var _ Transport = (*PooledTCP)(nil)

// NewPooledTCP returns a pooled transport with the given configuration.
func NewPooledTCP(cfg PoolConfig) *PooledTCP {
	cfg = cfg.withDefaults()
	p := &PooledTCP{
		cfg:      cfg,
		peers:    make(map[string]*peerPool),
		stop:     make(chan struct{}),
		allConns: make(map[*muxConn]struct{}),
	}
	p.baseCtx, p.cancelBg = context.WithCancel(context.Background())
	return p
}

// goBg runs f on a tracked goroutine so Close can await it.
func (p *PooledTCP) goBg(f func()) {
	p.bg.Add(1)
	go func() {
		defer p.bg.Done()
		f()
	}()
}

// trackConn registers a freshly created connection.
func (p *PooledTCP) trackConn(c *muxConn) {
	p.connMu.Lock()
	p.allConns[c] = struct{}{}
	p.connMu.Unlock()
}

// forgetConn drops a dead connection (its read loop has exited or will
// never start).
func (p *PooledTCP) forgetConn(c *muxConn) {
	p.connMu.Lock()
	delete(p.allConns, c)
	p.connMu.Unlock()
}

// peer returns (creating on demand) the pool for addr.
func (p *PooledTCP) peer(addr string) *peerPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := p.peers[addr]
	if pp == nil {
		pp = &peerPool{sem: make(chan struct{}, p.cfg.MaxConnsPerPeer*p.cfg.MaxInflightPerConn)}
		p.peers[addr] = pp
	}
	return pp
}

// janitorLoop closes connections that have been idle past IdleTimeout.
func (p *PooledTCP) janitorLoop() {
	interval := p.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-p.cfg.IdleTimeout)
		p.mu.Lock()
		pools := make([]*peerPool, 0, len(p.peers))
		for _, pp := range p.peers {
			pools = append(pools, pp)
		}
		p.mu.Unlock()
		for _, pp := range pools {
			var evict []*muxConn
			pp.mu.Lock()
			kept := pp.conns[:0]
			for _, c := range pp.conns {
				if at, idle := c.idleSince(); idle && at.Before(cutoff) {
					evict = append(evict, c)
					continue
				}
				kept = append(kept, c)
			}
			pp.conns = kept
			pp.mu.Unlock()
			for _, c := range evict {
				// close → retire handles the conns-open gauge.
				c.close()
				if m := p.m.Load(); m != nil {
					m.evictions.Inc()
				}
			}
		}
	}
}

// acquire reserves an in-flight slot on a live (or dialing) connection to
// addr, dialing a new one when every listed conn is at capacity and a
// slot is free. It returns the conn and a release func.
func (p *PooledTCP) acquire(ctx context.Context, addr string) (*muxConn, func(), error) {
	pp := p.peer(addr)
	select {
	case pp.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case <-p.stop:
		return nil, nil, ErrClosed
	}

	m := p.m.Load()
	pp.mu.Lock()
	var pick *muxConn
	for _, c := range pp.conns {
		if !c.usable(p.cfg.MaxInflightPerConn) {
			continue
		}
		if pick == nil || c.loadLess(pick) {
			pick = c
		}
	}
	dialed := false
	if pick == nil {
		// Every listed conn is full, dead, or draining; the semaphore
		// guarantees a slot is free (dead/draining conns are detached by
		// onRetire, so the list holds only usable-or-full conns). The new
		// conn opens and retires against the same metrics snapshot, so the
		// open-conns gauge balances even if SetMetrics runs in between.
		if m != nil {
			m.dials.Inc()
			m.connsOpen.Add(1)
		}
		pick = &muxConn{
			addr:    addr,
			io:      p.cfg.IOTimeout,
			batch:   p.cfg.batch(),
			side:    p.clientSide,
			ready:   make(chan struct{}),
			pending: make(map[uint64]chan muxResult),
			idleAt:  time.Now(),
			onRetire: func(c *muxConn) {
				pp.detach(c)
				if m != nil {
					m.retired.Inc()
					m.connsOpen.Add(-1)
				}
			},
			spawn:  p.goBg,
			onDead: p.forgetConn,
		}
		p.trackConn(pick)
		pp.conns = append(pp.conns, pick)
		dialed = true
	}
	pick.mu.Lock()
	pick.assigned++
	pick.mu.Unlock()
	pp.mu.Unlock()

	if dialed {
		// The dial descends from the pool's context, so Close aborts
		// dials still in flight instead of waiting out their timeout.
		p.goBg(func() { pick.dial(p.baseCtx, p.cfg.DialTimeout) })
	} else if m != nil {
		m.reuse.Inc()
	}

	release := func() {
		pick.mu.Lock()
		pick.assigned--
		if pick.assigned == 0 {
			pick.idleAt = time.Now()
		}
		pick.mu.Unlock()
		<-pp.sem
	}
	return pick, release, nil
}

// detach removes c from the peer's conn list (it keeps serving any
// in-flight calls until they finish).
func (pp *peerPool) detach(c *muxConn) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for i, x := range pp.conns {
		if x == c {
			pp.conns = append(pp.conns[:i], pp.conns[i+1:]...)
			return
		}
	}
}

// loadLess orders conns by current assignment (least-loaded wins).
func (c *muxConn) loadLess(o *muxConn) bool {
	c.mu.Lock()
	a := c.assigned
	c.mu.Unlock()
	o.mu.Lock()
	b := o.assigned
	o.mu.Unlock()
	return a < b
}

// Call implements Transport: it multiplexes the request over a pooled
// connection to addr, transparently redialing once when the pooled
// connection broke before the request could be written.
func (p *PooledTCP) Call(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return wire.Message{}, fmt.Errorf("call %s: %w: %v", addr, ErrUnreachable, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return wire.Message{}, fmt.Errorf("call %s: %w", addr, ErrClosed)
	}
	p.calls.Add(1)
	if !p.janitor {
		p.janitor = true
		p.goBg(p.janitorLoop)
	}
	p.mu.Unlock()
	defer p.calls.Done()

	req = stampDeadline(ctx, req)

	// One transparent redial: a conn that died or drained before this
	// request was written cannot have executed it, so retrying on a fresh
	// conn is safe for every message type.
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, release, err := p.acquire(ctx, addr)
		if err != nil {
			return wire.Message{}, fmt.Errorf("call %s: %w", addr, err)
		}
		resp, err := c.call(ctx, req)
		release()
		if err == nil {
			return finishCall(addr, resp)
		}
		lastErr = err
		if !errors.Is(err, errWriteFailed) && !errors.Is(err, errConnDraining) {
			break
		}
		if m := p.m.Load(); m != nil {
			m.redials.Inc()
		}
	}
	return wire.Message{}, fmt.Errorf("call %s: %w", addr, lastErr)
}

// Close gracefully drains the pool: new calls fail with ErrClosed,
// in-flight calls run to completion (bounded by IOTimeout), then every
// connection closes — including ones detached from their peer list
// (GoAway-drained) whose read loops would otherwise linger — and Close
// waits for the janitor, dial, and read-loop goroutines to exit, so a
// closed pool leaves nothing behind. Listeners are closed separately via
// their own closers.
func (p *PooledTCP) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.stop)
	p.mu.Unlock()
	p.calls.Wait()
	p.mu.Lock()
	pools := make([]*peerPool, 0, len(p.peers))
	for _, pp := range p.peers {
		pools = append(pools, pp)
	}
	p.mu.Unlock()
	for _, pp := range pools {
		pp.mu.Lock()
		conns := append([]*muxConn(nil), pp.conns...)
		pp.conns = nil
		pp.mu.Unlock()
		for _, c := range conns {
			c.close()
		}
	}
	p.connMu.Lock()
	remaining := make([]*muxConn, 0, len(p.allConns))
	for c := range p.allConns {
		remaining = append(remaining, c)
	}
	p.connMu.Unlock()
	for _, c := range remaining {
		c.close()
	}
	p.cancelBg()
	p.bg.Wait()
	return nil
}
