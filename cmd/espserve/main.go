// Command espserve serves a trained ESP model as an online branch-prediction
// oracle over HTTP JSON:
//
//	esptool train -out model.json
//	espserve -model model.json -addr :8080
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/predict -d '{"name":"demo","link_stdlib":true,"source":"int main() { ... }"}'
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the server drains gracefully: listening stops, requests
// already in flight complete, and the prediction worker pool empties before
// the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on the -pprof-addr mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "espserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("espserve", flag.ExitOnError)
	modelPath := fs.String("model", "esp-model.json", "trained model file (esptool train)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "prediction workers (default GOMAXPROCS)")
	maxBatch := fs.Int("batch", 0, "max requests folded into one model pass (default 32)")
	cacheSize := fs.Int("cache", 0, "compiled-program LRU cache entries (default 128)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (default 10s)")
	drainWait := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget")
	maxInflight := fs.Int("admission-limit", 0,
		"max concurrently admitted /predict requests; excess sheds with 429 (default queue depth, -1 unlimited)")
	maxParseDepth := fs.Int("max-parse-depth", 0,
		"max statement/expression nesting in submitted source (default 256, -1 unlimited)")
	maxCFGBlocks := fs.Int("max-cfg-blocks", 0,
		"max CFG blocks per compiled function (default 16384, -1 unlimited)")
	noDegrade := fs.Bool("no-degrade", false,
		"disable the heuristic fallback: model-path failures return 5xx instead of degraded predictions")
	train := fs.Bool("train", false,
		"train the model from the corpus at startup instead of loading -model (uses the artifact cache)")
	cacheDir := fs.String("cache-dir", "",
		"artifact cache directory for -train (default $ESPCACHE_DIR, else .espcache)")
	noCache := fs.Bool("no-cache", false, "disable the persistent analysis cache for -train")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0,
		"evict least-recently-used artifact cache entries past this size (0 = unbounded)")
	peers := fs.String("peers", "",
		"comma-separated base URLs of peer replicas sharing the artifact cache (enables the peer-cache protocol)")
	self := fs.String("self", "",
		"this replica's own base URL, excluded from -peers fetches")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof on this address (off when empty; bind to localhost)")
	accessLog := fs.String("access-log", "",
		"write sampled request traces as JSON lines to this file (\"-\" for stdout; off when empty)")
	traceSample := fs.Float64("trace-sample", 0.01,
		"fraction of request traces written to -access-log (0 disables, 1 logs every request)")
	traceRing := fs.Int("trace-ring", 0,
		"completed request traces kept in memory for /debug/requests (default 256, -1 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Printf("espserve: pprof on %s\n", pln.Addr())
		// http.DefaultServeMux carries the net/http/pprof handlers; the
		// prediction API below uses its own mux, so nothing else leaks here.
		go func() { _ = http.Serve(pln, nil) }()
	}

	// The artifact cache backs -train and the peer-cache protocol; when
	// peers are configured, analyses arrive from replicas that already did
	// the work before the interpreter is ever consulted.
	var cache *artifact.Cache
	if !*noCache && (*train || *peers != "") {
		var err error
		if cache, err = artifact.Open(artifact.DefaultDir(*cacheDir)); err != nil {
			fmt.Fprintf(os.Stderr, "espserve: %v (continuing uncached)\n", err)
			cache = nil
		}
		cache.SetMaxBytes(*cacheMaxBytes)
	}
	var analysis core.AnalysisCache = cache
	var peerCache *cluster.PeerCache
	if *peers != "" {
		var peerURLs []string
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
				peerURLs = append(peerURLs, u)
			}
		}
		peerCache = cluster.NewPeerCache(cache, cluster.PeerCacheConfig{
			Self:  strings.TrimRight(*self, "/"),
			Peers: peerURLs,
		})
		analysis = peerCache
	}

	// loadModel produces a fresh serving model from the configured source —
	// the corpus (-train, warmed by the artifact/peer cache) or the -model
	// file — both at startup and on each SIGHUP hot reload.
	loadModel := func() (*core.Model, error) {
		if *train {
			return trainStartupModel(analysis)
		}
		f, err := os.Open(*modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.Load(f)
	}
	model, err := loadModel()
	if err != nil {
		return err
	}

	var accessLogW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessLogW = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		defer f.Close()
		accessLogW = f
	}

	s, err := serve.New(serve.Config{
		Model:          model,
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		MaxInflight:    *maxInflight,
		MaxParseDepth:  *maxParseDepth,
		MaxCFGBlocks:   *maxCFGBlocks,
		NoDegrade:      *noDegrade,
		TraceRing:      *traceRing,
		TraceSample:    *traceSample,
		AccessLog:      accessLogW,
	})
	if err != nil {
		return err
	}

	handler := s.Handler()
	if peerCache != nil {
		// Peer hits/misses surface in this server's /metrics, and other
		// replicas fetch our cache entries at the peer path.
		peerCache.SetCounters(s.ClusterStats())
		mux := http.NewServeMux()
		mux.Handle(cluster.PeerPathPrefix, peerCache.Handler())
		mux.Handle("/", handler)
		handler = mux
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	// The resolved address goes to stdout so scripts (and tests) binding
	// ":0" can find the port.
	fmt.Printf("espserve: serving %s model on %s\n",
		model.Cfg.Classifier, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads the model without dropping a request: in-flight
	// work stays pinned to its version while new requests see the reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			m, err := loadModel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "espserve: reload: %v\n", err)
				continue
			}
			v, err := s.Reload(m)
			if err != nil {
				fmt.Fprintf(os.Stderr, "espserve: reload: %v\n", err)
				continue
			}
			fmt.Printf("espserve: model reloaded (version %d)\n", v)
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Println("espserve: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop accepting connections and wait for in-flight HTTP requests, then
	// empty the prediction pool.
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := s.Drain(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("espserve: drained, exiting")
	return nil
}

// trainStartupModel trains an ESP model from the full study corpus at
// startup. The expensive part — profiling every corpus program — is served
// from the analysis cache when warm (the local artifact cache, or a peer
// replica's via the cluster peer protocol), so a restart with a populated
// cache — or a cold replica joining a warm cluster — reaches serving
// without a single interpreter trace.
func trainStartupModel(cache core.AnalysisCache) (*core.Model, error) {
	start := time.Now()
	var data []*core.ProgramData
	for _, e := range corpus.Study() {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", e.Name, err)
		}
		pd, err := core.AnalyzeCached(cache, prog, e.Language, e.RunConfig())
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", e.Name, err)
		}
		data = append(data, pd)
	}
	model := core.Train(data, core.Config{})
	fmt.Printf("espserve: trained on %d programs in %v\n", len(data), time.Since(start).Round(time.Millisecond))
	return model, nil
}
