package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/obs"
)

// ErrDraining is returned to submissions that arrive after the pool has
// begun its graceful drain.
var ErrDraining = errors.New("serve: server is draining")

// job is one prediction request in flight through the pool: a batch of
// feature vectors and the slot its probabilities land in. The timestamps
// let the requester split its wait into queue time and model time; started
// and finished are written by the worker before the send on done, so they
// are safe to read only after receiving from done.
//
// done is a 1-buffered channel that the worker sends to (rather than
// closes), so a job object is reusable: after the requester receives the
// completion token the channel is empty again and the job can carry the
// next request (the arena keeps one per pooled request). The buffer also
// means the worker never blocks on a requester that stopped waiting.
type job struct {
	ctx      context.Context
	vecs     []features.Vector
	probs    []float64
	err      error
	done     chan struct{}
	enqueued time.Time
	started  time.Time
	finished time.Time
}

// pool is the batching worker pool. Requests enqueue jobs; each worker
// drains up to maxBatch queued jobs at a time, folds all of their vectors
// into one model pass over a single pooled scratch buffer, and scatters the
// probabilities back. Batching amortizes the scratch acquisition and keeps
// the model's buffers hot under concurrent load.
type pool struct {
	model    *core.Model
	jobs     chan *job
	maxBatch int
	nworkers int
	metrics  *metrics

	mu       sync.RWMutex // guards draining against sends on jobs
	draining bool

	busy atomic.Int64 // workers currently inside a batch

	// Approximate queue-age tracking: submitJob stamps enqueue times into a
	// ring indexed by a send sequence number, workers advance a receive
	// sequence number, and the age gauge reads the slot at the receive
	// cursor. All cells are atomics, so the gauge is lock-free and at worst
	// a few jobs stale.
	enqSeq   atomic.Uint64
	deqSeq   atomic.Uint64
	enqTimes []atomic.Int64 // UnixNano per sequence slot

	workers sync.WaitGroup
}

func newPool(model *core.Model, workers, maxBatch, queueDepth int, m *metrics) *pool {
	p := &pool{
		model:    model,
		jobs:     make(chan *job, queueDepth),
		maxBatch: maxBatch,
		nworkers: workers,
		metrics:  m,
		enqTimes: make([]atomic.Int64, queueDepth+1),
	}
	// Gauges over pool state are registered by serve.New through the current
	// model version, not here: pools are created again on every hot reload
	// and the gauge slice is read lock-free on scrape.
	p.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// queueAge estimates how long the job at the head of the queue has been
// waiting; zero when the queue is empty.
func (p *pool) queueAge() time.Duration {
	deq := p.deqSeq.Load()
	if p.enqSeq.Load() <= deq {
		return 0
	}
	ns := p.enqTimes[deq%uint64(len(p.enqTimes))].Load()
	if ns == 0 {
		return 0
	}
	age := time.Since(time.Unix(0, ns))
	if age < 0 {
		return 0
	}
	return age
}

// submitJob enqueues a caller-owned job and blocks until a worker completes
// it or the job's context expires. On success the queue-wait and forward
// stages are recorded into the context's trace, if any. The bool reports
// whether the caller may reuse the job and the buffers it references: false
// means the caller stopped waiting while a worker still owned them, so they
// must not be pooled (abandon them to the garbage collector).
func (p *pool) submitJob(j *job) (reusable bool, err error) {
	p.mu.RLock()
	if p.draining {
		p.mu.RUnlock()
		return true, ErrDraining
	}
	select {
	case p.jobs <- j:
		seq := p.enqSeq.Add(1) - 1
		p.enqTimes[seq%uint64(len(p.enqTimes))].Store(j.enqueued.UnixNano())
		p.mu.RUnlock()
	case <-j.ctx.Done():
		p.mu.RUnlock()
		return true, j.ctx.Err()
	}
	select {
	case <-j.done:
		if j.err != nil {
			return true, j.err
		}
		if tr := obs.FromContext(j.ctx); tr != nil && !j.started.IsZero() {
			tr.AddSpan(obs.StageQueueWait, j.enqueued, j.started.Sub(j.enqueued))
			tr.AddSpan(obs.StageForward, j.started, j.finished.Sub(j.started))
		}
		return true, nil
	case <-j.ctx.Done():
		// The worker still owns the job and will complete it; the caller
		// just stops waiting.
		return false, j.ctx.Err()
	}
}

// drain stops accepting new jobs, lets the workers finish everything already
// queued, and waits for them to exit (or for ctx to expire).
func (p *pool) drain(ctx context.Context) error {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	p.mu.Unlock()
	if !already {
		close(p.jobs)
	}
	finished := make(chan struct{})
	go func() {
		p.workers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dequeued accounts one job leaving the queue: the age cursor advances and
// the job's wait lands in the queue-wait histogram.
func (p *pool) dequeued(j *job) {
	p.deqSeq.Add(1)
	p.metrics.queueWait.Observe(time.Since(j.enqueued).Microseconds())
}

// worker drains batches of jobs and predicts each batch's vectors in one
// model pass.
func (p *pool) worker() {
	defer p.workers.Done()
	batch := make([]*job, 0, p.maxBatch)
	var vecs []features.Vector
	var probs []float64
	for j := range p.jobs {
		p.busy.Add(1)
		p.dequeued(j)
		batch = append(batch[:0], j)
		// Opportunistically fold whatever else is already queued into the
		// same pass, up to maxBatch jobs.
	fill:
		for len(batch) < p.maxBatch {
			select {
			case j2, ok := <-p.jobs:
				if !ok {
					break fill
				}
				p.dequeued(j2)
				batch = append(batch, j2)
			default:
				break fill
			}
		}
		start := time.Now()
		vecs = vecs[:0]
		live := 0
		for _, b := range batch {
			b.started = start
			if b.ctx.Err() != nil {
				// The requester has already gone; don't spend model time.
				b.err = b.ctx.Err()
				continue
			}
			vecs = append(vecs, b.vecs...)
			live++
		}
		p.metrics.batches.Add(1)
		p.metrics.batchedJobs.Add(int64(len(batch)))
		if live > 0 {
			if cap(probs) < len(vecs) {
				probs = make([]float64, len(vecs))
			}
			probs = probs[:len(vecs)]
			if err := p.forward(vecs, probs); err != nil {
				// The pass failed; every live job in the batch shares the
				// error and the worker keeps serving.
				for _, b := range batch {
					if b.err == nil {
						b.err = err
					}
				}
			} else {
				p.metrics.predictedVecs.Add(int64(len(vecs)))
				off := 0
				for _, b := range batch {
					if b.err != nil {
						continue
					}
					copy(b.probs, probs[off:off+len(b.vecs)])
					off += len(b.vecs)
				}
			}
		}
		end := time.Now()
		for _, b := range batch {
			b.finished = end
			b.done <- struct{}{} // 1-buffered: never blocks, job stays reusable
		}
		p.busy.Add(-1)
	}
}

// forward runs one model pass, converting panics into errors so a poisoned
// batch cannot take the worker (and with it the process) down.
func (p *pool) forward(vecs []features.Vector, probs []float64) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p.metrics.panicsRecovered.Add(1)
			err = fmt.Errorf("serve: model pass panicked: %v", rec)
		}
	}()
	if err := faultinject.Fire(siteForward); err != nil {
		return err
	}
	p.model.TakenProbabilities(vecs, probs)
	return nil
}
