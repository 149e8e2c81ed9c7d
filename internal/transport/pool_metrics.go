package transport

import (
	"time"

	"repro/internal/obs"
)

// poolMetrics is the pool's per-layer series, published by SetMetrics.
type poolMetrics struct {
	dials     *obs.Counter
	reuse     *obs.Counter
	evictions *obs.Counter
	retired   *obs.Counter
	redials   *obs.Counter
	connsOpen *obs.Gauge

	client sideMetrics // this side dials: request flushes, response reads
	server sideMetrics // this side listens: response flushes, request reads
}

// sideMetrics observes one side's mux connections: the write coalescing
// (how many flushes happened, how many frames and bytes they carried,
// how many write syscalls batching saved, the distribution of batch
// sizes and lingers) and the encoded/decoded wire bytes. Its methods
// accept a nil receiver — an unobserved transport — so connections call
// them unconditionally.
type sideMetrics struct {
	flushes     *obs.Counter
	frames      *obs.Counter
	bytes       *obs.Counter
	writesSaved *obs.Counter
	perFlush    *obs.Histogram // frames per flush (unitless, bounds 1..64)
	linger      *obs.Histogram // linger applied before each flush
	encBytes    *obs.Counter
	decBytes    *obs.Counter
}

// framesPerFlushBuckets are the bucket bounds for the frames-per-flush
// histogram: batch sizes, not latencies.
var framesPerFlushBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// newSideMetrics registers one side's hours_batch_* and hours_codec_*
// series.
func newSideMetrics(reg *obs.Registry, side string) sideMetrics {
	l := obs.L("side", side)
	return sideMetrics{
		flushes:     reg.Counter("hours_batch_flushes_total", l),
		frames:      reg.Counter("hours_batch_frames_total", l),
		bytes:       reg.Counter("hours_batch_bytes_total", l),
		writesSaved: reg.Counter("hours_batch_writes_saved_total", l),
		perFlush:    reg.HistogramWith("hours_batch_frames_per_flush", framesPerFlushBuckets, l),
		linger:      reg.Histogram("hours_batch_linger_seconds", l),
		encBytes:    reg.Counter("hours_codec_encode_bytes_total", l),
		decBytes:    reg.Counter("hours_codec_decode_bytes_total", l),
	}
}

// flushed observes one completed coalesced flush.
func (s *sideMetrics) flushed(frames, bytes int, linger time.Duration) {
	if s == nil {
		return
	}
	s.flushes.Inc()
	s.frames.Add(int64(frames))
	s.bytes.Add(int64(bytes))
	s.writesSaved.Add(int64(frames - 1))
	// The per-flush histogram reuses the duration-based Observe: one
	// "second" per frame in the batch.
	s.perFlush.Observe(time.Duration(frames) * time.Second)
	s.linger.Observe(linger)
}

// wrote counts encoded bytes handed to the socket.
func (s *sideMetrics) wrote(n int) {
	if s != nil && n > 0 {
		s.encBytes.Add(int64(n))
	}
}

// read counts bytes read off the socket for decoding.
func (s *sideMetrics) read(n int) {
	if s != nil && n > 0 {
		s.decBytes.Add(int64(n))
	}
}

// SetMetrics registers the pool's own series (dials, reuse, evictions,
// batching, wire bytes) in reg; nil is a no-op. The registry is
// published atomically, so SetMetrics may run at any time, even with
// connections open: events before it are simply not counted.
func (p *PooledTCP) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.m.Store(&poolMetrics{
		dials:     reg.Counter("hours_pool_dials_total"),
		reuse:     reg.Counter("hours_pool_conn_reuse_total"),
		evictions: reg.Counter("hours_pool_idle_evictions_total"),
		retired:   reg.Counter("hours_pool_conns_retired_total"),
		redials:   reg.Counter("hours_pool_redials_total"),
		connsOpen: reg.Gauge("hours_pool_conns_open"),
		client:    newSideMetrics(reg, "client"),
		server:    newSideMetrics(reg, "server"),
	})
}

// clientSide yields the dialing side's metrics, nil when unobserved.
func (p *PooledTCP) clientSide() *sideMetrics {
	if m := p.m.Load(); m != nil {
		return &m.client
	}
	return nil
}

// serverSide yields the listening side's metrics, nil when unobserved.
func (p *PooledTCP) serverSide() *sideMetrics {
	if m := p.m.Load(); m != nil {
		return &m.server
	}
	return nil
}
