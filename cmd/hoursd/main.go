// Command hoursd runs live HOURS nodes over TCP.
//
// Single-node mode joins one server into an existing hierarchy:
//
//	hoursd -name "." -addr :7000                       # a root
//	hoursd -name edu -addr :7001 -parent 127.0.0.1:7000
//	hoursd -name ucla.edu -addr :7002 -parent 127.0.0.1:7001
//
// After every node of a sibling group has joined, send each one SIGHUP-ish
// "build" via the -build-after flag (seconds) or restart with -build; for
// quick demos, -demo LEVELS spins an entire hierarchy of local TCP nodes
// inside one process and serves queries until interrupted:
//
//	hoursd -demo 4,3 -addr 127.0.0.1:7000
//
// Query any node with cmd/hoursq. With -debug-addr, the daemon also
// serves Prometheus metrics (/metrics), expvar-style JSON (/debug/vars),
// collected distributed traces (/debug/traces), Go runtime telemetry
// (hours_go_* gauges inside /metrics), and a liveness check (/healthz):
//
//	hoursd -demo 4,3 -addr 127.0.0.1:7000 -debug-addr 127.0.0.1:9090
//	curl -s 127.0.0.1:9090/metrics
//	curl -s 127.0.0.1:9090/debug/traces
//
// -trace-sample sets the head-sampling probability for queries that
// arrive without a trace context (hoursq -trace forces sampling end to
// end regardless); -profile-dir turns on continuous profiling, rotating
// pprof CPU/heap captures into the directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/overload"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hoursd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hoursd", flag.ContinueOnError)
	var (
		name        = fs.String("name", "", "node name ('.' for the root)")
		addr        = fs.String("addr", "127.0.0.1:7000", "listen address (host:port)")
		parent      = fs.String("parent", "", "parent address (empty for a root)")
		k           = fs.Int("k", 3, "redundancy factor k")
		q           = fs.Int("q", 4, "nephew pointers per entry q")
		seed        = fs.Uint64("seed", 1, "random seed")
		probe       = fs.Duration("probe", 2*time.Second, "probing period (0 disables)")
		buildAfter  = fs.Duration("build-after", 5*time.Second, "delay before building the routing table (lets siblings join first)")
		demo        = fs.String("demo", "", "comma-separated fanouts: run a whole hierarchy in-process")
		data        = fs.String("data", "", "answer served for this node's own name")
		logLevel    = fs.String("log-level", "info", "log level: debug, info, warn, error")
		debugAddr   = fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /healthz on this address")
		retryAtt    = fs.Int("retry-attempts", 3, "max attempts per idempotent RPC (1 disables retries)")
		suspicionK  = fs.Int("suspicion-k", 3, "consecutive failed probes before the CCW pointer is declared dead")
		poolSize    = fs.Int("pool-size", 4, "persistent connections kept per peer (0 dials per call)")
		maxInflight = fs.Int("max-inflight", 32, "concurrent requests multiplexed per pooled connection")
		traceSample = fs.Float64("trace-sample", 0, "head-sampling probability for distributed traces (0 records only traces forced upstream, 1 traces every query)")
		profileDir  = fs.String("profile-dir", "", "continuous profiling: rotate pprof CPU/heap captures into this directory")
		rateLimit   = fs.Float64("rate-limit", 0, "per-client admitted queries/second (token bucket; 0 disables admission control)")
		maxConc     = fs.Int("max-concurrency", 0, "adaptive in-flight handler ceiling (AIMD; 0 disables the concurrency limit)")
		breakerThr  = fs.Int("breaker-threshold", 0, "consecutive overloaded/timeout failures before a peer's circuit breaker opens (0 disables the breaker)")
		batchLinger = fs.Duration("batch-linger", transport.DefaultBatchLinger, "max adaptive write-coalescing linger per pooled connection (scales with in-flight load; negative never lingers)")
		batchBytes  = fs.Int("batch-bytes", 64<<10, "write-coalescing flush threshold in bytes per pooled connection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level)
	reg := obs.NewRegistry()
	// The tracer exists even at -trace-sample 0 so traces forced upstream
	// (hoursq -trace, or a peer's head decision) are still recorded and
	// servable; only local head sampling is off then.
	tracer := trace.New(trace.Config{SampleRate: *traceSample, Seed: *seed})
	stopDebug, err := serveDebug(*debugAddr, reg, tracer, logger)
	if err != nil {
		return err
	}
	defer stopDebug()
	if *profileDir != "" {
		stopProf, err := obs.StartProfiler(obs.ProfileConfig{Dir: *profileDir})
		if err != nil {
			return err
		}
		defer stopProf()
		logger.Info("continuous profiling", "dir", *profileDir)
	}
	if *demo != "" {
		return runDemo(demoConfig{
			spec: *demo, rootAddr: *addr, k: *k, q: *q, seed: *seed,
			probe: *probe, retryAtt: *retryAtt, suspicionK: *suspicionK,
			poolSize: *poolSize, maxInflight: *maxInflight,
			rateLimit: *rateLimit, maxConc: *maxConc, breakerThr: *breakerThr,
			batchLinger: *batchLinger, batchBytes: *batchBytes,
			tracer: tracer,
		}, reg, logger)
	}
	if *name == "" {
		return fmt.Errorf("missing -name (or use -demo)")
	}
	stacked, err := transport.NewStack(stackOptions(
		*poolSize, *maxInflight, 0, 0,
		*batchLinger, *batchBytes,
		retryPolicy(*retryAtt, *seed), breakerPolicy(*breakerThr),
		reg, tracer, *name)...)
	if err != nil {
		return err
	}
	defer func() { _ = stacked.Close() }()
	nd, err := node.New(node.Config{
		Name: *name, Addr: *addr, ParentAddr: *parent,
		K: *k, Q: *q, Seed: *seed, ProbePeriod: *probe, Data: *data,
		SuspicionK: *suspicionK,
		Metrics:    reg, Logger: logger,
		Tracer:   tracer,
		Overload: overloadConfig(*rateLimit, *maxConc),
	}, stacked)
	if err != nil {
		return err
	}
	if err := nd.Start(); err != nil {
		return err
	}
	defer func() { _ = nd.Stop() }()
	ctx := context.Background()
	if *parent != "" {
		if err := nd.Join(ctx); err != nil {
			return err
		}
		logger.Info("joined hierarchy", "node", nd.Name(), "parent", *parent)
		time.AfterFunc(*buildAfter, func() {
			if err := nd.BuildTable(context.Background()); err != nil {
				logger.Error("build table failed", "node", nd.Name(), "err", err)
				return
			}
			logger.Info("routing table built", "node", nd.Name(),
				"entries", nd.TableSize(), "index", nd.Index())
		})
	}
	logger.Info("serving", "node", nd.Name(), "addr", *addr)
	return waitForSignal()
}

// serveDebug starts the observability HTTP endpoint (/metrics,
// /debug/vars, /healthz, /debug/traces) when addr is non-empty, along
// with the runtime-telemetry collector feeding the hours_go_* gauges.
// The bound address is recorded in debugBoundAddr so tests with ":0"
// can find it.
func serveDebug(addr string, reg *obs.Registry, tracer *trace.Tracer, logger *slog.Logger) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	debugBoundAddr = ln.Addr().String()
	stopRuntime := obs.StartRuntimeCollector(reg, 10*time.Second)
	mux := http.NewServeMux()
	th := trace.Handler(tracer)
	mux.Handle("/debug/traces", th)
	mux.Handle("/debug/traces/", th)
	mux.Handle("/", obs.Handler(reg))
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	logger.Info("debug server listening", "addr", debugBoundAddr)
	return func() {
		_ = srv.Close()
		stopRuntime()
	}, nil
}

// debugBoundAddr is the resolved -debug-addr listen address (tests pass
// ":0" and read the bound port from here).
var debugBoundAddr string

// overloadConfig maps the -rate-limit / -max-concurrency flags onto a
// node overload config; both zero leaves the control plane off (nil).
func overloadConfig(rate float64, maxConc int) *overload.Config {
	if rate <= 0 && maxConc <= 0 {
		return nil
	}
	return &overload.Config{
		Admission:   overload.AdmissionConfig{Rate: rate},
		Concurrency: overload.AIMDConfig{Max: maxConc},
	}
}

// breakerPolicy maps -breaker-threshold onto a circuit-breaker policy
// for the transport stack; 0 disables the layer (nil policy). Other
// knobs (cooldown, half-open probes) keep the transport defaults.
func breakerPolicy(threshold int) *transport.BreakerPolicy {
	if threshold <= 0 {
		return nil
	}
	return &transport.BreakerPolicy{Threshold: threshold}
}

// retryPolicy builds the daemon's retry policy: attempts <= 1 keeps the
// single-shot behavior (nil policy), anything more retries idempotent
// RPCs with jittered exponential backoff sized for WAN-ish latencies.
func retryPolicy(attempts int, seed uint64) *transport.RetryPolicy {
	if attempts <= 1 {
		return nil
	}
	return &transport.RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: 25 * time.Millisecond,
		MaxBackoff:  time.Second,
		Seed:        seed,
	}
}

// stackOptions maps the daemon flags onto transport stack options: the
// pooled multiplexing transport by default (with the write-coalescing
// knobs), or the one-shot dial-per-call TCP when -pool-size 0 asks for
// the v1 baseline. Zero timeouts keep the transport defaults; nil
// policies skip their layers.
func stackOptions(poolSize, maxInflight int, dialTimeout, ioTimeout time.Duration,
	batchLinger time.Duration, batchBytes int,
	retry *transport.RetryPolicy, breaker *transport.BreakerPolicy,
	reg *obs.Registry, tracer *trace.Tracer, local string) []transport.StackOption {
	opts := []transport.StackOption{
		transport.WithMetrics(reg),
		transport.WithTracing(tracer, local),
	}
	if poolSize <= 0 {
		opts = append(opts, transport.WithBase(&transport.TCP{DialTimeout: dialTimeout, IOTimeout: ioTimeout}))
	} else {
		opts = append(opts, transport.WithPool(transport.PoolConfig{
			MaxConnsPerPeer:    poolSize,
			MaxInflightPerConn: maxInflight,
			DialTimeout:        dialTimeout,
			IOTimeout:          ioTimeout,
		}))
		opts = append(opts, transport.WithBatching(batchLinger, batchBytes))
	}
	if retry != nil {
		opts = append(opts, transport.WithRetry(*retry))
	}
	if breaker != nil {
		opts = append(opts, transport.WithBreaker(*breaker))
	}
	return opts
}

// demoConfig bundles the -demo hierarchy parameters.
type demoConfig struct {
	spec        string
	rootAddr    string
	k, q        int
	seed        uint64
	probe       time.Duration
	retryAtt    int
	suspicionK  int
	poolSize    int
	maxInflight int
	rateLimit   float64
	maxConc     int
	breakerThr  int
	batchLinger time.Duration
	batchBytes  int
	tracer      *trace.Tracer
}

// runDemo spins up a whole hierarchy of TCP nodes in one process, all
// sharing one canonical transport stack (see transport.Stack).
func runDemo(dc demoConfig, reg *obs.Registry, logger *slog.Logger) error {
	fanouts, err := parseFanouts(dc.spec)
	if err != nil {
		return err
	}
	// One stack is shared by every demo node, so client spans carry no
	// single node name ("-"); server spans still claim theirs.
	stacked, err := transport.NewStack(stackOptions(
		dc.poolSize, dc.maxInflight, time.Second, 3*time.Second,
		dc.batchLinger, dc.batchBytes,
		retryPolicy(dc.retryAtt, dc.seed), breakerPolicy(dc.breakerThr),
		reg, dc.tracer, "-")...)
	if err != nil {
		return err
	}
	defer func() { _ = stacked.Close() }()
	ctx := context.Background()

	host := dc.rootAddr[:strings.LastIndexByte(dc.rootAddr, ':')]
	var nodes []*node.Node
	mk := func(name, parentAddr, listen string) (*node.Node, string, error) {
		// A ":0" listen address must be resolved to a concrete port
		// before the node advertises it to peers.
		if strings.HasSuffix(listen, ":0") {
			resolved, err := freePort(host)
			if err != nil {
				return nil, "", err
			}
			listen = resolved
		}
		nd, err := node.New(node.Config{
			Name: name, Addr: listen, ParentAddr: parentAddr,
			K: dc.k, Q: dc.q, Seed: dc.seed + uint64(len(nodes)), ProbePeriod: dc.probe,
			SuspicionK: dc.suspicionK,
			Metrics:    reg, Logger: logger,
			Tracer:   dc.tracer,
			Overload: overloadConfig(dc.rateLimit, dc.maxConc),
		}, stacked)
		if err != nil {
			return nil, "", err
		}
		if err := nd.Start(); err != nil {
			return nil, "", err
		}
		nodes = append(nodes, nd)
		return nd, nd.Addr(), nil
	}
	defer func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			_ = nodes[i].Stop()
		}
	}()

	root, rootBound, err := mk(".", "", dc.rootAddr)
	if err != nil {
		return err
	}
	_ = root
	logger.Info("root listening", "addr", rootBound)

	type ent struct {
		name string
		addr string
	}
	frontier := []ent{{name: "", addr: rootBound}}
	basePort := portOf(dc.rootAddr)
	port := basePort + 1
	var joined []*node.Node
	for li, fan := range fanouts {
		var next []ent
		for _, p := range frontier {
			for i := 0; i < fan; i++ {
				label := fmt.Sprintf("n%d-%d", li+1, i)
				childName := label
				if p.name != "" {
					childName = label + "." + p.name
				}
				listen := fmt.Sprintf("%s:%d", host, port)
				if basePort == 0 {
					listen = host + ":0" // mk resolves a free port
				}
				port++
				nd, bound, err := mk(childName, p.addr, listen)
				if err != nil {
					return err
				}
				if err := nd.Join(ctx); err != nil {
					return err
				}
				joined = append(joined, nd)
				next = append(next, ent{name: childName, addr: bound})
			}
		}
		frontier = next
	}
	for _, nd := range joined {
		if err := nd.BuildTable(ctx); err != nil {
			return fmt.Errorf("build table for %s: %w", nd.Name(), err)
		}
	}
	logger.Info("demo hierarchy ready; query any node with hoursq", "nodes", len(nodes))
	for _, nd := range nodes {
		fmt.Printf("  %-24s %s\n", nd.Name(), nd.Addr())
	}
	return waitForSignal()
}

func parseFanouts(spec string) ([]int, error) {
	parts := strings.Split(spec, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad fanout %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// freePort asks the OS for an available TCP port on host.
func freePort(host string) (string, error) {
	ln, err := net.Listen("tcp", host+":0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

func portOf(addr string) int {
	i := strings.LastIndexByte(addr, ':')
	v, err := strconv.Atoi(addr[i+1:])
	if err != nil {
		return 7000
	}
	return v
}

// waitForSignal blocks until interrupt/termination. Tests override it to
// drive the daemon paths headlessly.
var waitForSignal = func() error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}
