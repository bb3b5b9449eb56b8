package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// arrival is one scheduled request: when it is due, as an offset from the
// start of the schedule, and which request it sends.
type arrival struct {
	due time.Duration
	req int
}

// poissonSchedule draws an open-loop Poisson arrival schedule: exponential
// gaps at rate per second for d, each arrival picking a request with pick.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, pick func(*rand.Rand) int) []arrival {
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, arrival{due: t, req: pick(rng)})
	}
}

// outcome is what happened to one scheduled request. Times are offsets from
// the schedule's start.
type outcome struct {
	req             int
	due, sent, done time.Duration
	late            time.Duration // how late the generator dispatched it
	status          int
	body            []byte
	err             error
	sentOK          bool
}

// runResult is the outcome of playing one schedule.
type runResult struct {
	outcomes []outcome
	// abandoned counts requests never sent: still queued when the grace
	// period after the last due time ran out.
	abandoned int
}

// loadgen sends scheduled requests open loop over a fixed number of
// connections, one sender per connection.
type loadgen struct {
	client *http.Client
	url    string
	conns  int
}

func newLoadgen(url string, conns int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: time.Minute}, url: url, conns: conns}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// run plays one schedule. A dispatcher releases each request at its due
// time onto the queue of the connection lane picks for it, whether or not
// that connection is free; each connection's sender takes its requests in
// order. A request's latency runs from its due time, so time spent waiting
// behind a stalled request counts. Requests still waiting grace after the
// last due time are abandoned rather than sent.
func (g *loadgen) run(bodies [][]byte, sched []arrival, lane func(req int) int, grace time.Duration) runResult {
	res := runResult{outcomes: make([]outcome, len(sched))}
	var cutoff time.Duration
	if len(sched) > 0 {
		cutoff = sched[len(sched)-1].due + grace
	}
	queues := make([]chan int, g.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range queues {
		// Sized to the schedule so the dispatcher never blocks on a busy
		// sender.
		queues[c] = make(chan int, len(sched))
		wg.Add(1)
		go func(queue chan int) {
			defer wg.Done()
			for i := range queue {
				o := &res.outcomes[i]
				if time.Since(start) > cutoff {
					continue // abandoned: never sent
				}
				o.sent = time.Since(start)
				o.sentOK = true
				o.status, o.body, o.err = g.post(bodies[o.req])
				o.done = time.Since(start)
			}
		}(queues[c])
	}
	for i, a := range sched {
		if wait := a.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		o := &res.outcomes[i]
		o.req, o.due = a.req, a.due
		o.late = time.Since(start) - a.due
		queues[lane(a.req)] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for _, o := range res.outcomes {
		if !o.sentOK {
			res.abandoned++
		}
	}
	return res
}

func (g *loadgen) post(body []byte) (int, []byte, error) {
	resp, err := g.client.Post(g.url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
