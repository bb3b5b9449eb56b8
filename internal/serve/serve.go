// Package serve turns a trained ESP model into an online branch-prediction
// oracle: an HTTP JSON service in the deployment shape of Rotem & Cummins'
// "Profile Guided Optimization without Profiles" — compilers (or anything
// else) submit MinC source or pre-extracted Table 2 feature vectors and get
// per-branch taken/not-taken predictions with confidences, instead of
// profiling.
//
// The service is built for load: a worker pool batches concurrently
// submitted feature vectors into single model passes over pooled scratch
// buffers, compiled program images and their extracted features are kept in
// an LRU cache keyed by source hash, every endpoint is instrumented
// (request, error, latency, cache, and batching counters at /metrics), each
// request runs under a context deadline, and Drain performs a graceful
// SIGTERM shutdown that completes in-flight requests while refusing new
// ones.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/guard"
	"repro/internal/heuristics"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
)

// Fault-injection sites along the prediction path. In production these are
// single atomic-load no-ops; the chaos tests activate an injector to force
// errors, latency, and panics through them.
var (
	siteCacheGet = faultinject.Register("serve.cache.get")
	siteCompile  = faultinject.Register("serve.compile")
	siteSubmit   = faultinject.Register("serve.pool.submit")
	siteForward  = faultinject.Register("serve.forward")
)

// Config parameterizes a Server.
type Config struct {
	// Model is the trained ESP model to serve (required).
	Model *core.Model
	// Workers sizes the prediction worker pool (default GOMAXPROCS).
	Workers int
	// MaxBatch bounds how many queued requests one worker folds into a
	// single model pass (default 32).
	MaxBatch int
	// QueueDepth bounds the prediction queue (default 4*Workers*MaxBatch).
	QueueDepth int
	// CacheSize bounds the compiled-program LRU cache (default 128 entries).
	CacheSize int
	// RequestTimeout is the per-request deadline (default 10s).
	RequestTimeout time.Duration
	// MaxSourceBytes bounds submitted program text (default 1 MiB).
	MaxSourceBytes int
	// MaxVectors bounds the feature vectors of one request (default 4096).
	MaxVectors int
	// MaxInflight bounds concurrently admitted /predict requests; excess
	// load is shed immediately with 429 and a Retry-After hint instead of
	// queueing without bound (default QueueDepth; negative disables
	// admission control).
	MaxInflight int
	// MaxParseDepth bounds statement/expression nesting when compiling
	// submitted source (default 256; negative disables the guard).
	MaxParseDepth int
	// MaxCFGBlocks bounds the per-function CFG when compiling submitted
	// source (default 16384; negative disables the guard).
	MaxCFGBlocks int
	// NoDegrade disables the heuristic fallback: model-path failures
	// surface as 5xx instead of degraded 200 responses.
	NoDegrade bool
	// TraceRing bounds the in-memory ring of completed request traces
	// served at /debug/requests (default 256; negative disables the ring).
	TraceRing int
	// TraceSample is the fraction of request traces written to AccessLog
	// as JSON lines (0 disables the access log, 1 logs every request).
	TraceSample float64
	// AccessLog receives sampled trace JSON lines (nil disables).
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers * c.MaxBatch
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxSourceBytes == 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxVectors == 0 {
		c.MaxVectors = 4096
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = c.QueueDepth
	}
	if c.MaxParseDepth == 0 {
		c.MaxParseDepth = 256
	}
	if c.MaxCFGBlocks == 0 {
		c.MaxCFGBlocks = 16384
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	return c
}

// parseLimits translates the configured guards into compiler limits,
// treating negative values as "unlimited".
func (c Config) parseDepth() int {
	if c.MaxParseDepth < 0 {
		return 0
	}
	return c.MaxParseDepth
}

func (c Config) cfgBlocks() int {
	if c.MaxCFGBlocks < 0 {
		return 0
	}
	return c.MaxCFGBlocks
}

// Server is the espserve HTTP service.
type Server struct {
	cfg     Config
	cache   *lru
	metrics *metrics
	traces  *obs.Recorder
	mux     *http.ServeMux
	started time.Time
	admit   chan struct{} // admission-control semaphore (nil when disabled)

	// The model registry: current points at the version serving new
	// requests, versions holds every generation ever installed (for Drain),
	// and draining refuses further reloads once shutdown begins.
	current  atomic.Pointer[modelVersion]
	mu       sync.Mutex // guards versions and the reload swap
	versions []*modelVersion
	draining atomic.Bool

	fallback *heuristics.DSHC
}

// New builds a Server around a trained model, installed as version 1.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Model == nil {
		return nil, errors.New("serve: Config.Model is required")
	}
	s := &Server{
		cfg:      cfg,
		cache:    newLRU(cfg.CacheSize),
		metrics:  newMetrics(),
		traces:   obs.NewRecorder(cfg.TraceRing, cfg.TraceSample, cfg.AccessLog),
		mux:      http.NewServeMux(),
		started:  time.Now(),
		fallback: heuristics.NewDSHCBallLarus(),
	}
	if cfg.MaxInflight > 0 {
		s.admit = make(chan struct{}, cfg.MaxInflight)
	}
	mv := newModelVersion(1, cfg.Model, newPool(cfg.Model, cfg.Workers, cfg.MaxBatch, cfg.QueueDepth, s.metrics))
	s.versions = append(s.versions, mv)
	s.current.Store(mv)

	// Pool gauges read through the current version so a hot reload swaps
	// what they report along with what serves; registration happens once,
	// here, because the gauge slice is read lock-free on every scrape.
	s.metrics.addGauge("espserve_batch_queue_depth", "Jobs waiting in the prediction queue.",
		func() float64 { return float64(len(s.current.Load().pool.jobs)) })
	s.metrics.addGauge("espserve_batch_queue_age_micros", "Approximate age of the oldest queued job in microseconds.",
		func() float64 { return float64(s.current.Load().pool.queueAge().Microseconds()) })
	s.metrics.addGauge("espserve_busy_workers", "Workers currently executing a model pass.",
		func() float64 { return float64(s.current.Load().pool.busy.Load()) })
	s.metrics.addGauge("espserve_workers", "Size of the prediction worker pool.",
		func() float64 { return float64(s.current.Load().pool.nworkers) })
	s.metrics.addGauge("espserve_worker_utilization", "Fraction of workers currently executing a model pass.",
		func() float64 {
			p := s.current.Load().pool
			return float64(p.busy.Load()) / float64(p.nworkers)
		})
	s.metrics.addGauge("espserve_model_version", "Model version currently serving new requests.",
		func() float64 { return float64(s.current.Load().version) })

	s.mux.HandleFunc("/predict", s.instrument("predict", s.handlePredict))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/debug/requests", s.instrument("debug", s.handleDebugRequests))
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the prediction pipeline down: new predictions are
// refused with 503 while requests already in flight run to completion. It
// returns once every model version's worker pool has emptied (or ctx
// expires) — retired versions still draining out included. Call it after
// http.Server.Shutdown has stopped accepting connections.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	vs := append([]*modelVersion(nil), s.versions...)
	s.mu.Unlock()
	var firstErr error
	for _, mv := range vs {
		if err := mv.pool.drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter records the response code so instrumentation can count
// errors. Once a status has been sent, later WriteHeader calls are ignored
// instead of duplicated onto the wire (net/http logs a spurious warning and
// the original code stands anyway).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush passes streaming flushes through to the underlying writer, so
// handlers (and httputil proxies) that depend on http.Flusher keep working
// behind the instrumentation wrapper. A flush commits the response headers,
// so it counts as having written.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		w.wrote = true
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// statusClientClosedRequest is the non-standard (nginx-convention) status
// used to account requests whose client went away before the answer was
// ready. Nothing meaningful can be delivered; the code keeps cancellations
// distinguishable from server-side deadline 504s in logs and metrics.
const statusClientClosedRequest = 499

// requestID picks the trace ID for one request: a client-supplied
// X-Request-ID wins, otherwise a process-unique ID is minted.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		return id
	}
	return s.traces.NextID()
}

// instrument wraps a handler with the per-endpoint counters and latency
// histogram, the request trace (recorded into the /debug/requests ring and
// the sampled access log), the request deadline, and panic containment: a
// panicking handler is accounted as a 500 and the process keeps serving.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)

		tr := obs.NewTrace(name, s.requestID(r))
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx = obs.WithTrace(ctx, tr)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panicsRecovered.Add(1)
				tr.SetError(fmt.Errorf("panic: %v", rec))
				if sw.wrote {
					// Headers are gone; record the failure for accounting
					// only.
					sw.status = http.StatusInternalServerError
				} else {
					writeJSON(sw, http.StatusInternalServerError,
						errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
				}
			}
			s.metrics.endpoint(name).observe(time.Since(start).Microseconds(), sw.status >= 400)
			tr.SetStatus(sw.status)
			s.traces.Record(tr)
		}()
		h(sw, r.WithContext(ctx))
	}
}

// PredictRequest is the /predict request body. Exactly one of Source or
// Vectors must be set.
type PredictRequest struct {
	// ID is echoed back verbatim, letting clients correlate responses.
	ID string `json:"id,omitempty"`
	// Source is MinC program text to compile and predict.
	Source string `json:"source,omitempty"`
	// Name labels the submitted source (default "query").
	Name string `json:"name,omitempty"`
	// Language tags the source dialect: "C" (default), "FORT", or "SCHEME".
	Language string `json:"language,omitempty"`
	// LinkStdlib links the submitted source against the MinC runtime
	// library, as the corpus programs are.
	LinkStdlib bool `json:"link_stdlib,omitempty"`
	// Vectors carries pre-extracted feature vectors (NumFeatures categorical
	// values each) instead of source.
	Vectors [][]string `json:"vectors,omitempty"`
}

// Prediction is one branch's answer.
type Prediction struct {
	// Branch identifies the site ("func:bN" for compiled source, "#i" for
	// submitted vectors).
	Branch string `json:"branch"`
	// Taken is the predicted direction.
	Taken bool `json:"taken"`
	// Probability is the model's taken-probability estimate.
	Probability float64 `json:"probability"`
	// Confidence is max(p, 1-p): how far the estimate is from a coin flip.
	Confidence float64 `json:"confidence"`
}

// PredictResponse is the /predict response body.
type PredictResponse struct {
	ID      string `json:"id,omitempty"`
	Program string `json:"program,omitempty"`
	Cached  bool   `json:"cached"`
	// Degraded reports that the model path was unavailable and the
	// predictions come from the Dempster-Shafer heuristic fallback
	// instead of the trained model.
	Degraded    bool         `json:"degraded,omitempty"`
	Predictions []Prediction `json:"predictions"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errTransient marks infrastructure failures (as opposed to bad requests)
// on the compile path; they map to 503 with a Retry-After hint.
var errTransient = errors.New("transient failure")

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	endAdmit := tr.StartSpan(obs.StageAdmission)
	if s.admit != nil {
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
		default:
			endAdmit()
			s.metrics.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests,
				errorResponse{Error: "overloaded, retry later"})
			return
		}
	}
	endAdmit()
	// Pin the serving model version for the whole request: a hot reload
	// mid-request keeps answering from the version this request started
	// with, and the version's pool cannot drain while the pin is held.
	mv := s.pinned()
	defer mv.unpin()
	endDecode := tr.StartSpan(obs.StageDecode)
	body := http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+1<<16)
	ar := getArena()
	data, err := ar.readBody(body)
	if err != nil {
		putArena(ar)
		endDecode()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	featStart := time.Now()
	if ar.decode(data, s.cfg.MaxVectors) {
		// The scan fuses parsing and featurization, so the featurize span
		// covers the same wall time the two-step encoding/json decode
		// reports separately.
		endDecode()
		tr.AddSpan(obs.StageFeaturize, featStart, time.Since(featStart))
		s.answer(r.Context(), w, mv, ar, "", false, ar.vecs)
		return
	}
	// Anything else — source submissions, malformed bodies, over-limit or
	// wrong-arity vectors — re-parses through encoding/json, which carries
	// the full semantics and error reporting. The decoded request owns its
	// strings, so the arena goes back now rather than pinning the body
	// buffer through a compile; the answer takes a fresh one.
	var req PredictRequest
	err = json.NewDecoder(bytes.NewReader(data)).Decode(&req)
	putArena(ar)
	endDecode()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}

	var (
		program string
		cached  bool
		vecs    []features.Vector
	)
	switch {
	case req.Source != "" && len(req.Vectors) > 0:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "request has both source and vectors"})
		return
	case req.Source != "":
		if len(req.Source) > s.cfg.MaxSourceBytes {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("source exceeds %d bytes", s.cfg.MaxSourceBytes)})
			return
		}
		img, hit, err := s.compile(tr, &req)
		switch {
		case err == nil:
		case errors.Is(err, guard.ErrBudgetExceeded):
			s.metrics.budgetRejects.Add(1)
			writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
			return
		case errors.Is(err, errTransient):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		default:
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		program, cached, vecs = img.Name, hit, img.Vectors
	case len(req.Vectors) > 0:
		if len(req.Vectors) > s.cfg.MaxVectors {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request has %d vectors, limit %d", len(req.Vectors), s.cfg.MaxVectors)})
			return
		}
		endFeaturize := tr.StartSpan(obs.StageFeaturize)
		vecs = make([]features.Vector, len(req.Vectors))
		for i, vals := range req.Vectors {
			if vecs[i], err = features.FromValues(vals); err != nil {
				writeJSON(w, http.StatusBadRequest,
					errorResponse{Error: fmt.Sprintf("vector %d: %v", i, err)})
				return
			}
		}
		endFeaturize()
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "request needs source or vectors"})
		return
	}
	ar = getArena()
	ar.id = req.ID
	s.answer(r.Context(), w, mv, ar, program, cached, vecs)
}

// answer is the one tail of every /predict request that decoded: a single
// submission of the arena's job over vecs, the one failure switch (drain,
// cancel, timeout, and the heuristic degrade), and the arena encoder for
// every 200 body. A program with no branch sites skips the pool. The arena
// goes back to the pool only when no worker may still own its job.
func (s *Server) answer(ctx context.Context, w http.ResponseWriter, mv *modelVersion, ar *requestArena, program string, cached bool, vecs []features.Vector) {
	tr := obs.FromContext(ctx)
	reusable := true
	var probs []float64
	err := faultinject.Fire(siteSubmit)
	if err == nil && len(vecs) > 0 {
		j := ar.prepareJob(ctx, vecs)
		reusable, err = mv.pool.submitJob(j)
		probs = j.probs
	}
	timedOut := errors.Is(err, context.DeadlineExceeded)
	if timedOut {
		s.metrics.timeouts.Add(1)
	}
	switch {
	case errors.Is(err, ErrDraining):
		s.metrics.rejectedDrain.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled):
		// The client has gone; nobody is reading a degraded answer. This is
		// client behaviour, not a server deadline, so it is accounted
		// separately and written with the client-closed-request status.
		s.metrics.canceled.Add(1)
		tr.SetError(err)
		writeJSON(w, statusClientClosedRequest, errorResponse{Error: err.Error()})
	case err != nil && s.cfg.NoDegrade:
		tr.SetError(err)
		status := http.StatusInternalServerError
		if timedOut {
			status = http.StatusGatewayTimeout
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
	default:
		degraded := err != nil
		if degraded {
			// Degraded mode answers from the heuristic tier over the same
			// vectors, into a fresh slice: a worker may still own the job's.
			tr.SetError(err)
			s.metrics.degraded.Add(1)
			probs = s.fallbackProbabilities(vecs)
		}
		endEncode := tr.StartSpan(obs.StageEncode)
		out := ar.encodeResponse(program, cached, degraded, vecs, probs)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
		endEncode()
	}
	if reusable {
		putArena(ar)
	}
}

// sourceKey hashes everything that determines a compilation's output.
func sourceKey(req *PredictRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%v\x00", req.Name, req.Language, req.LinkStdlib)
	h.Write([]byte(req.Source))
	return hex.EncodeToString(h.Sum(nil))
}

// fallbackProbabilities answers from the heuristic tier: the Dempster-Shafer
// combination of the Ball/Larus evidence read from each feature vector
// (heuristics.VectorApply), a pure function of the vector.
func (s *Server) fallbackProbabilities(vecs []features.Vector) []float64 {
	probs := make([]float64, len(vecs))
	for i := range vecs {
		ev := heuristics.VectorApply(&vecs[i])
		probs[i], _ = s.fallback.TakenProbability(&ev)
	}
	return probs
}

// compile resolves a source submission to a program image, consulting the
// LRU cache first. A fault at the cache site degrades to a fresh compile; a
// fault at the compile site is a transient infrastructure failure. The
// trace gets a cache span on a hit, and compile + featurize spans on a
// miss.
func (s *Server) compile(tr *obs.Trace, req *PredictRequest) (*programImage, bool, error) {
	key := sourceKey(req)
	endCache := tr.StartSpan(obs.StageCache)
	if faultinject.Fire(siteCacheGet) == nil {
		if img, ok := s.cache.get(key); ok {
			endCache()
			s.metrics.cacheHits.Add(1)
			return img, true, nil
		}
	}
	s.metrics.cacheMisses.Add(1)
	if err := faultinject.Fire(siteCompile); err != nil {
		return nil, false, fmt.Errorf("compile backend: %w: %w", errTransient, err)
	}
	endCompile := tr.StartSpan(obs.StageCompile)

	lang := ir.LangC
	switch req.Language {
	case "", string(ir.LangC):
	case string(ir.LangFortran):
		lang = ir.LangFortran
	case string(ir.LangScheme):
		lang = ir.LangScheme
	default:
		return nil, false, fmt.Errorf("unknown language %q", req.Language)
	}
	name := req.Name
	if name == "" {
		name = "query"
	}
	prog, err := s.compileSource(name, lang, req)
	if err != nil {
		return nil, false, err
	}
	endCompile()
	endFeaturize := tr.StartSpan(obs.StageFeaturize)
	ps := features.Collect(prog)
	img := &programImage{Name: name, Vectors: features.ExtractAll(ps)}
	endFeaturize()
	s.cache.add(key, img)
	return img, false, nil
}

// compileSource compiles a submission under the server's limits. A
// link_stdlib request links the precompiled runtime library when it can;
// otherwise, and on any failure, it compiles the concatenated source, so
// the program and every error are exactly the concatenated compile's.
func (s *Server) compileSource(name string, lang ir.Language, req *PredictRequest) (*ir.Program, error) {
	lim := guard.Limits{ParseDepth: s.cfg.parseDepth(), CFGBlocks: s.cfg.cfgBlocks()}
	src := req.Source
	if req.LinkStdlib {
		if prog, ok := corpus.CompileLinked(name, src, lang, codegen.Default, lim); ok {
			return prog, nil
		}
		src += corpus.StdlibSource + corpus.Stdlib2Source
	}
	ast, err := minic.ParseWithLimits(name, src, minic.Limits{MaxDepth: lim.ParseDepth})
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := codegen.CompileBounded(ast, lang, codegen.Default, lim)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return prog, nil
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status       string `json:"status"`
	Classifier   string `json:"classifier"`
	Inputs       int    `json:"inputs"`
	Hidden       int    `json:"hidden,omitempty"`
	ModelVersion int64  `json:"model_version"`
	UptimeSec    int64  `json:"uptime_sec"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mv := s.currentVersion()
	resp := healthzResponse{
		Status:       "ok",
		Classifier:   mv.model.Cfg.Classifier.String(),
		Inputs:       mv.model.Encoder.Dim,
		ModelVersion: mv.version,
		UptimeSec:    int64(time.Since(s.started).Seconds()),
	}
	if mv.model.Net != nil {
		resp.Hidden = mv.model.Net.Hidden
	}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.metrics.render())
}

// debugRequestsResponse is the /debug/requests body: the trace ring, oldest
// first.
type debugRequestsResponse struct {
	Traces []*obs.Trace `json:"traces"`
}

// handleDebugRequests serves the bounded ring of recent request traces, each
// carrying its per-stage spans, for production latency forensics.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, debugRequestsResponse{Traces: s.traces.Snapshot()})
}
