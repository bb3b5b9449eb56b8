package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/obs"
)

// The serving traffic, one definition for the in-process probe of both
// workloads and the cluster stage of gen's traced run: a seeded stream over
// a fixed pool of generated programs, mixing vectors requests with
// link_stdlib source requests.
const (
	// poolSize is the number of generated programs source requests draw
	// from: more than a server's default 128-entry LRU holds (and more than
	// two replicas' LRUs together), so both hits and misses occur.
	poolSize = 320
	// poolSeed generates the pool. It is fixed, so every run serves the
	// same programs and the run's seed draws only the traffic: arrival
	// times, request kinds, and which programs and sites are asked for.
	poolSeed = 1
	// zipfS skews source requests towards a few popular programs.
	zipfS = 1.1
	// vectorsShare is the fraction of requests that carry feature vectors.
	vectorsShare = 0.5
	// distinctVectors is how many different vectors requests the stream
	// draws from, each requestVectors consecutive sites of the pool.
	distinctVectors = 1024
	// requestVectors is the feature vectors per vectors request: enough
	// that the server's work, not the wake-up of its worker goroutine,
	// sets the latency.
	requestVectors = 64
)

// The cluster stage of gen's traced run: the shipped binaries, esprouter in
// front of two espserve replicas, under the serving traffic as open-loop
// Poisson arrivals. Its latencies vary too much between runs on a small VM
// to bound, so it yields per-layer figures only.
const (
	// clusterRate is the open-loop arrival rate in requests per second.
	clusterRate = 200
	// clusterTime gives about 1100 vectors requests, enough for a
	// supported p99 of the router hop.
	clusterTime = 11 * time.Second
	// grace is how long requests may still wait for a connection after the
	// last one is due before they are abandoned.
	grace = 200 * time.Millisecond
)

// clusterStage serves m from a model file through the cluster, with every
// replica logging every request trace (-access-log -trace-sample 1), and
// checks every response against the model loaded from the same file. It
// reports the router hop and how late the generator ran.
//
// The router drops X-Request-ID, so a replica trace cannot be joined to its
// client request: the hop is the client's latency distribution minus the
// replicas' trace durations, matched by percentile across all vectors
// requests, not per request.
func clusterStage(b *bench, m *core.Model, pool *servePool) error {
	path := filepath.Join(b.scratch, "model.json")
	if err := saveModel(m, path); err != nil {
		return err
	}
	m, err := loadModel(path)
	if err != nil {
		return err
	}
	reqs, err := pool.requests(m)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		bodies[i] = reqs[i].body
	}
	logDir := filepath.Join(b.scratch, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	c, err := startCluster(b.binDir, path, logDir)
	if err != nil {
		return err
	}
	g := newLoadgen(c.url(), runtime.NumCPU())
	settle()
	res := g.run(bodies, schedule(b.seed, clusterRate, clusterTime), lane(reqs, g.conns), grace)
	g.close()
	// Stopping the replicas drains them, so every trace is in the logs.
	c.stop()

	var clientMS, lateMS []float64
	for _, o := range res.outcomes {
		if !o.sentOK {
			continue
		}
		lateMS = append(lateMS, float64(o.late)/1e6)
		q := &reqs[o.req]
		err := o.err
		if err == nil {
			err = q.check(o.status, o.body)
		}
		b.check(err == nil, "cluster request %d: %v", o.req, err)
		if err == nil && !q.source {
			clientMS = append(clientMS, float64(o.done-o.sent)/1e6)
		}
	}
	b.check(res.abandoned == 0, "cluster abandoned %d requests", res.abandoned)

	var replicaUS []float64
	for _, log := range c.logs {
		f, err := os.Open(log)
		if err != nil {
			return err
		}
		traces, err := readTraces(f)
		f.Close()
		if err != nil {
			return err
		}
		for _, t := range traces {
			if t.Endpoint == "predict" && !isSourceTrace(t.Spans) {
				replicaUS = append(replicaUS, float64(t.DurUS))
			}
		}
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p99", 0.99}} {
		client, err1 := percentile(clientMS, q.q)
		replica, err2 := percentile(replicaUS, q.q)
		hop := -1.0
		if err1 == nil && err2 == nil {
			hop = client*1e3 - replica
		}
		b.set("cluster.hop."+q.name+"_us", hop)
	}
	b.set("loadgen.late.p99_ms", tailOrUnsupported(lateMS, 0.99))
	b.l.count("loadgen.sent", float64(len(lateMS)))
	return nil
}

// servePool is the fixed pool of generated programs the serving traffic
// draws from, with each program's branch sites and feature vectors as
// espserve derives them from a source request. It keeps no compiled code.
type servePool struct {
	entries []corpus.Entry
	refs    [][]string
	vecs    [][]features.Vector
}

// newServePool generates the pool from poolSeed and analyzes every program.
func newServePool() (*servePool, error) {
	p := &servePool{entries: gencorpus.Spec{Seed: poolSeed, N: poolSize}.Entries()}
	for _, e := range p.entries {
		pd, err := frontEnd(e)
		if err != nil {
			return nil, err
		}
		refs := make([]string, len(pd.Sites.Sites))
		for i, s := range pd.Sites.Sites {
			refs[i] = s.Ref.String()
		}
		p.refs = append(p.refs, refs)
		p.vecs = append(p.vecs, pd.Vectors)
	}
	return p, nil
}

// requests builds the distinct requests of the serving traffic with m's
// answers: request i < poolSize is a link_stdlib source request for pool
// program i, and each later one carries requestVectors consecutive feature
// vectors of the pool's programs laid end to end.
func (p *servePool) requests(m *core.Model) ([]request, error) {
	var out []request
	var all []features.Vector
	for i, e := range p.entries {
		q, err := sourceRequest(fmt.Sprintf("s%d", i), m, e, p.refs[i], p.vecs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, q)
		all = append(all, p.vecs[i]...)
	}
	for j := 0; j < distinctVectors; j++ {
		off := j * requestVectors % (len(all) - requestVectors + 1)
		q, err := vectorsRequest(fmt.Sprintf("v%d", j), m, all[off:off+requestVectors])
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// picker draws the serving traffic's requests: a vectors request with
// probability vectorsShare, otherwise a source request for a Zipf-ranked
// pool program.
func picker(rng *rand.Rand) func(*rand.Rand) int {
	zipf := rand.NewZipf(rng, zipfS, 1, poolSize-1)
	return func(r *rand.Rand) int {
		if r.Float64() < vectorsShare {
			return poolSize + r.Intn(distinctVectors)
		}
		return int(zipf.Uint64())
	}
}

// stream draws n requests of the serving traffic, in order, for the
// in-process probe to play back to back.
func stream(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	pick := picker(rng)
	out := make([]int, n)
	for i := range out {
		out[i] = pick(rng)
	}
	return out
}

// schedule draws the cluster's arrivals: the serving traffic as Poisson
// arrivals at rate for d.
func schedule(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	return poissonSchedule(rng, rate, d, picker(rng))
}

// lane assigns requests to connections: vectors requests get a connection
// of their own, so they never queue behind a source compile on the client
// side, and source requests share the rest. With one connection both kinds
// share it.
func lane(reqs []request, conns int) func(req int) int {
	next := 0
	return func(req int) int {
		if conns == 1 || !reqs[req].source {
			return 0
		}
		next++
		return 1 + next%(conns-1)
	}
}

// isSourceTrace tells a source request's trace from a vectors request's:
// only source requests consult the compiled-program cache.
func isSourceTrace(spans []obs.Span) bool {
	for _, s := range spans {
		if s.Stage == obs.StageCache || s.Stage == obs.StageCompile {
			return true
		}
	}
	return false
}

func saveModel(m *core.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}
