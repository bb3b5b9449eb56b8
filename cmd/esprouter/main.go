// Command esprouter fronts a set of espserve replicas with consistent-hash
// routing and bounded failover:
//
//	espserve -addr :8081 & espserve -addr :8082 & espserve -addr :8083 &
//	esprouter -addr :8080 -replicas http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// Each /predict is routed by its content key (the submitted source, or the
// feature vectors) to one replica, so repeat submissions of one program hit
// that replica's compiled-program and artifact caches. A shed (429), server
// error (5xx), or unreachable replica fails the request over to the next
// distinct live replica on the ring, up to -failover attempts; responses
// relay verbatim, so clients speak exactly the single-server protocol.
//
// SIGINT or SIGTERM drains the router like espserve: it stops accepting
// connections and waits for in-flight requests to finish relaying, for at
// most as long as one request may take (-failover attempts of -timeout
// each), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "esprouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("esprouter", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (required)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per replica on the hash ring (default 64)")
	failover := fs.Int("failover", 0, "max replicas one request may be offered to (default 3)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-attempt upstream timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas == "" {
		return fmt.Errorf("-replicas is required")
	}
	var reps []*cluster.Replica
	for i, u := range strings.Split(*replicas, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		rep := &cluster.Replica{Name: fmt.Sprintf("replica-%d", i)}
		rep.SetURL(u)
		reps = append(reps, rep)
	}
	if len(reps) == 0 {
		return fmt.Errorf("-replicas held no usable URLs")
	}

	router := cluster.NewRouter(cluster.RouterConfig{
		Vnodes:      *vnodes,
		MaxFailover: *failover,
		Timeout:     *timeout,
	}, reps...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: router}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The resolved address goes to stdout so scripts (and tests) binding
	// ":0" can find the port.
	fmt.Printf("esprouter: routing %d replicas on %s\n", len(reps), ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Println("esprouter: draining")
	attempts, perAttempt := *failover, *timeout
	if attempts <= 0 {
		attempts = 3
	}
	if perAttempt <= 0 {
		perAttempt = 30 * time.Second
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Duration(attempts)*perAttempt)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("esprouter: drained, exiting")
	return nil
}
