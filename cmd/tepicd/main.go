// Command tepicd is the compression-as-a-service daemon: the whole
// compile → encode → lint → simulate pipeline behind a long-running
// HTTP/JSON API, backed by the concurrent compilation driver and its
// bounded, LRU-evicting artifact store, which holds at most -cachecap
// completed artifacts. One process serves many clients; hot benchmark ×
// scheme artifacts stay cached, cold ones rebuild on demand, and
// /v1/stats exposes the hit/miss/eviction counters live.
//
// Usage:
//
//	tepicd                              # listen on :8344
//	tepicd -addr 127.0.0.1:9000         # explicit listen address
//	tepicd -par 8                       # compilation worker-pool width
//	tepicd -cachecap 1024               # artifact store capacity in entries (exact)
//	tepicd -maxbody 65536               # request body cap in bytes
//
// Endpoints: POST /v1/compile, /v1/encode, /v1/decode, /v1/lint,
// /v1/simulate; GET /v1/stats, /healthz. See internal/serve.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliio"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// shutdownGrace bounds how long an interrupted daemon waits for
// in-flight requests before the listener is torn down.
const shutdownGrace = 5 * time.Second

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a slow or stalled client cannot hold a
// connection open before any handler runs. idleTimeout closes
// keep-alive connections left idle between requests. There is
// deliberately no write timeout: a long streamed /v1/simulate
// legitimately runs for seconds before its response is written.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in the daemon's http.Server
// with its connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run boots the daemon and blocks until ctx is cancelled or the
// listener fails (separated from main for testing).
//
//tepic:pool
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tepicd", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address")
	par := fs.Int("par", 0, "compilation worker-pool width (0 = GOMAXPROCS)")
	cachecap := fs.Int("cachecap", 4096, "artifact store capacity in entries (0 = unbounded)")
	maxbody := fs.Int64("maxbody", serve.DefaultMaxBody, "request body cap in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := serve.New(serve.Config{
		Driver:  core.NewDriverWithCache(*par, *cachecap),
		MaxBody: *maxbody,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	w := cliio.New(out)
	w.Printf("tepicd listening on %s\n", ln.Addr())
	if err := w.Err(); err != nil {
		if cerr := ln.Close(); cerr != nil {
			return fmt.Errorf("%w (and closing listener: %v)", err, cerr)
		}
		return err
	}

	srv := newHTTPServer(s.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		// Serve has returned http.ErrServerClosed by now; drain it.
		<-errc
		w.Println("tepicd shut down")
		return w.Err()
	case err := <-errc:
		return err
	}
}
