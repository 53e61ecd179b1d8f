// Command kflushd serves a multi-attribute kFlushing microblogs store
// over HTTP. One ingested stream is indexed under keywords, spatial
// grid tiles, and user timelines — each attribute with its own memory
// budget, flushing policy instance, and disk tier.
//
// Endpoints:
//
//	POST /microblogs                  ingest JSON object(s)
//	GET  /search/keywords?q=a,b&op=and&k=20[&trace=1]
//	GET  /search/nearby?lat=40.7&lon=-74.0&k=20[&trace=1]
//	GET  /search/user?id=42&k=20[&trace=1]
//	GET  /stats                       per-attribute snapshots (JSON)
//	GET  /metrics                     Prometheus text format
//	GET  /debug/blackbox              flight-recorder merged timeline (JSON):
//	                                  flush cycles and slow queries are
//	                                  its ID-stamped events (?id=)
//	GET  /healthz                     liveness probe
//	GET  /readyz                      readiness probe (disk + WAL writable)
//
// trace=1 returns a per-query execution trace alongside the results;
// -pprof mounts net/http/pprof; -log-level tunes diagnostic logging.
//
// SIGINT or SIGTERM stops kflushd cleanly: the listener closes, requests
// in flight get up to ten seconds to finish, then the store closes
// (the flush cycle in flight completes and a durable store seals its
// log), one "kflushd: stopped cleanly" line is logged and the process
// exits 0.
// The next start replays only what a crash would have left it.
//
// Example:
//
//	kflushd -addr :8080 -data /var/lib/kflushd -policy kflushing -budget 64
//	curl -XPOST localhost:8080/microblogs \
//	     -d '{"keywords":["go"],"text":"hello","user_id":7,"lat":40.7,"lon":-74.0}'
//	curl 'localhost:8080/search/keywords?q=go&k=5'
//	curl 'localhost:8080/search/user?id=7&k=5'
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kflushing"
	"kflushing/internal/blackbox"
	"kflushing/internal/server"
)

// shutdownTimeout bounds how long a stopping kflushd waits for requests
// in flight before it closes the store under them.
const shutdownTimeout = 10 * time.Second

func main() {
	// A crash must not take the flight recorder's evidence with it: dump
	// every attribute system's event rings before the panic propagates.
	defer func() {
		if p := recover(); p != nil {
			for _, path := range blackbox.DumpAll("panic") {
				slog.Error("kflushd: flight recorder dumped", "dump", path)
			}
			panic(p)
		}
	}()
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "kflushd-data", "data directory (disk tiers and WAL)")
	policy := flag.String("policy", "kflushing", "flushing policy: kflushing|kflushing-mk|fifo|lru")
	budgetMiB := flag.Int64("budget", 256, "memory budget per attribute in MiB")
	k := flag.Int("k", 20, "default top-k")
	flushFrac := flag.Float64("flush", 0.10, "flushing budget B as a fraction")
	durable := flag.Bool("durable", false, "write-ahead log memory contents")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	slowQuery := flag.Duration("slow-query", 0, "record a query_slow event (timings, keys) for searches at least this slow (e.g. 50ms; 0 disables), served at /debug/blackbox?subsystem=query")
	logLevel := flag.String("log-level", "info", "diagnostic log level: debug|info|warn|error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("bad -log-level %q: %v", *logLevel, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	store, err := server.OpenStore(*dataDir, kflushing.Options{
		K:              *k,
		MemoryBudget:   *budgetMiB << 20,
		FlushFraction:  *flushFrac,
		Policy:         kflushing.PolicyKind(*policy),
		Clock:          kflushing.WallClock(),
		Durable:        *durable,
		SlowQueryNanos: slowQuery.Nanoseconds(),
	})
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = store.Close() // the listen error is the one to report
		log.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: store.HandlerWithOptions(server.HandlerOptions{EnablePprof: *enablePprof})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	log.Printf("kflushd listening on %s (policy=%s budget=%dMiB/attr k=%d durable=%v pprof=%v)",
		ln.Addr(), *policy, *budgetMiB, *k, *durable, *enablePprof)

	select {
	case err := <-served:
		_ = store.Close() // the serve error is the one to report
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	start := time.Now()
	shutdown, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdown); err != nil {
		log.Printf("kflushd: requests still in flight after %v: %v", shutdownTimeout, err)
	}
	if err := store.Close(); err != nil {
		log.Fatalf("close store: %v", err)
	}
	log.Printf("kflushd: stopped cleanly in %v", time.Since(start).Round(time.Millisecond))
}
