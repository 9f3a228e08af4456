// Command slicekvsd serves the simulated slice-aware key-value store over
// a memcached-style text protocol: one shard per simulated core (the core
// is the shard's cpusim core, not a host thread), each request served on
// its connection goroutine under its shard's FIFO lock, an overload guard
// (priority shedding, AQM on each shard's lock queue, per-shard circuit
// breakers, a degradation ladder) on the admission path, and a health +
// Prometheus sidecar. SIGTERM drains gracefully: admission stops
// with a retryable refusal, in-flight requests finish (bounded), shard
// statistics checkpoint to disk, and the process exits 0.
//
// With -wal-dir set the daemon is crash-consistent: every acked SET is
// journaled (group-committed within -wal-flush-every), periodic atomic
// snapshots truncate the journal, startup replays snapshot+journal before
// /readyz flips, and a crashed shard is warm-restarted from its
// durable state while the degradation ladder floor stays pinned.
//
// Pair it with cmd/slicekvs-loadgen, which can arm a seeded fault plan
// against the live server (`chaos arm`) and measure per-class latency
// while the daemon degrades and recovers.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.addr, "addr", cfg.addr, "protocol listen address")
	flag.StringVar(&cfg.httpAddr, "http", cfg.httpAddr, "health/metrics listen address (empty disables)")
	flag.IntVar(&cfg.shards, "shards", cfg.shards, "shards (each owns a simulated machine)")
	keys := flag.Uint64("keys", cfg.keys, "total keyspace size")
	flag.BoolVar(&cfg.sliceAware, "sliceaware", cfg.sliceAware, "slice-aware value placement")
	flag.IntVar(&cfg.warmup, "warmup", cfg.warmup, "per-shard warm-up GETs before ready")
	flag.IntVar(&cfg.connsMax, "conns-max", cfg.connsMax, "concurrent connection cap")
	flag.IntVar(&cfg.inbox, "inbox", cfg.inbox, "max requests waiting per shard for its lock")
	flag.IntVar(&cfg.classes, "classes", cfg.classes, "priority classes")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", cfg.readTimeout, "per-connection read deadline")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", cfg.writeTimeout, "per-connection write deadline")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", cfg.requestTimeout, "bound on a request's wait for its shard's lock")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", cfg.drainTimeout, "bound on waiting out in-flight requests at drain")
	flag.DurationVar(&cfg.lameDuck, "lame-duck", cfg.lameDuck, "linger in draining before closing sockets")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", cfg.breakerCooldown, "circuit-breaker open cooldown")
	flag.StringVar(&cfg.aqm, "aqm", cfg.aqm, "AQM on each shard's lock queue: codel, red, or none")
	flag.DurationVar(&cfg.aqmTarget, "aqm-target", cfg.aqmTarget, "CoDel sojourn target")
	flag.DurationVar(&cfg.aqmInterval, "aqm-interval", cfg.aqmInterval, "CoDel interval")
	flag.DurationVar(&cfg.fullSojourn, "full-sojourn", cfg.fullSojourn, "queue wait regarded as full shedding pressure")
	flag.StringVar(&cfg.checkpoint, "checkpoint", cfg.checkpoint, "drain checkpoint path (empty disables)")
	flag.StringVar(&cfg.walDir, "wal-dir", cfg.walDir, "per-shard journal+snapshot directory (empty disables durability)")
	flag.DurationVar(&cfg.walFlushEvery, "wal-flush-every", cfg.walFlushEvery, "group-commit flush interval (the acked-write loss window)")
	flag.IntVar(&cfg.walFlushRecs, "wal-flush-records", cfg.walFlushRecs, "group-commit record threshold")
	flag.IntVar(&cfg.walSnapEvery, "wal-snapshot-every", cfg.walSnapEvery, "SETs between snapshots (0 snapshots only at drain)")
	flag.DurationVar(&cfg.restartBackoff, "restart-backoff", cfg.restartBackoff, "delay before a crashed shard is restored; doubles per consecutive crash, up to 2s")
	flag.StringVar(&cfg.sinkAddr, "sink-addr", "", "statsink address to stream per-second wide events to (empty disables)")
	flag.DurationVar(&cfg.statsTick, "stats-tick", cfg.statsTick, "wide-event snapshot period")
	flag.IntVar(&cfg.traceSample, "trace-sample", 0, "trace one request in N through the serving pipeline (0 disables)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "chrome://tracing file written at drain (needs -trace-sample)")
	flag.BoolVar(&cfg.pprofOn, "pprof", false, "mount net/http/pprof on the health sidecar")
	flag.StringVar(&cfg.sloSpec, "slo", "", "SLOs to monitor, e.g. avail:*:0.95,lat:3:20ms:0.99 (empty disables)")
	flag.Float64Var(&cfg.sloBurn, "slo-burn", cfg.sloBurn, "burn-rate threshold for SLO alerts")
	flag.DurationVar(&cfg.sloFast, "slo-fast", cfg.sloFast, "fast burn-rate window")
	flag.DurationVar(&cfg.sloSlow, "slo-slow", cfg.sloSlow, "slow burn-rate window")
	flag.Parse()
	cfg.keys = *keys

	s, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := s.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	<-sigc
	s.Drain()
}
