package main

import (
	"fmt"
	"sync"
	"time"
)

// opRecord is what a connection keeps of one op until its lap is
// verified: timings, and where the reply sits in the connection's arena.
type opRecord struct {
	start, sent, end time.Time
	off, n           int // reply bytes in arena[off : off+n]
	txBytes, rxBytes int // socket bytes this op moved
	err              error
	// verify is when the post-lap check of this op ran (traced runs
	// only turn it into a span).
	verifyStart, verifyEnd time.Time
	hits                   int
}

// runner drives one workload's plan against a booted cluster.
type runner struct {
	w     *workload
	c     *cluster
	pay   payloads
	conns [numConns]conn
	// recs and arena are reused across laps so the load generator's own
	// allocation does not vary from lap to lap.
	recs  [numConns][]opRecord
	arena [numConns][]byte
	// tracing makes replay note when each request left its socket.
	tracing bool
}

func newRunner(w *workload, c *cluster) (*runner, error) {
	r := &runner{w: w, c: c, pay: w.payloads()}
	for i := range r.conns {
		cn, err := c.dial(0)
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns[i] = cn
		r.recs[i] = make([]opRecord, len(w.plan[i]))
	}
	return r, nil
}

func (r *runner) close() {
	for _, cn := range r.conns {
		if cn != nil {
			cn.close()
		}
	}
}

// sample is one verified op: what it was, when its reply arrived, how
// long the round trip took.
type sample struct {
	kind opKind
	end  time.Time
	us   float64
}

// lapResult is one lap as measured.
type lapResult struct {
	start, end         time.Time
	attempted, failed  int
	queries, publishes int // completed and verified
	samples            []sample
	daemonCPU          time.Duration
	loadgenCPU         time.Duration
	// Socket bytes and hits of verified queries, for the ledger.
	queryTx, queryRx int64
	hits             int
	// errs keeps the first few failed ops for the report.
	errs []string
}

func (lr *lapResult) completed() int { return lr.queries + lr.publishes }

// cpuPerOp is the daemons' CPU time over the lap per verified op, in
// microseconds.
func (lr *lapResult) cpuPerOp() float64 {
	return float64(lr.daemonCPU.Microseconds()) / float64(lr.completed())
}

// sliceLen is the grain at which a lap is read. The reference host flips
// between an undisturbed and a slower state in bursts as short as a few
// hundred milliseconds (README, noise notes); a slice has to fit inside
// one.
const sliceLen = 100 * time.Millisecond

// slice is one sliceLen window of a lap: the round trips that completed
// in it.
type slice struct {
	query, publish []float64 // us
}

// value is the slice's reading of one sliced metric; NaN when the slice
// holds no op of the kind the metric needs.
func (s *slice) value(metric string) float64 {
	switch metric {
	case "query_p50_us":
		return percentile(s.query, 0.50)
	case "query_p90_us":
		return percentile(s.query, 0.90)
	case "publish_p50_us":
		return percentile(s.publish, 0.50)
	case "ops_s":
		return float64(len(s.query)+len(s.publish)) / sliceLen.Seconds()
	}
	panic("no sliced metric " + metric)
}

// slices cuts the lap into whole sliceLen windows from its start (the
// remainder at the end is dropped) and files every verified op under the
// window its reply arrived in.
func (lr *lapResult) slices() []slice {
	out := make([]slice, int(lr.end.Sub(lr.start)/sliceLen))
	for _, sm := range lr.samples {
		i := int(sm.end.Sub(lr.start) / sliceLen)
		if i >= len(out) {
			continue
		}
		if sm.kind == opQuery {
			out[i].query = append(out[i].query, sm.us)
		} else {
			out[i].publish = append(out[i].publish, sm.us)
		}
	}
	return out
}

// lap replays the plan once on both connections, then verifies every
// reply against the oracle. Nothing inside the timed window parses a
// reply: bodies are copied into the arena and checked afterwards.
func (r *runner) lap() (*lapResult, error) {
	pids := r.c.pids()
	cpu0, err := cpuTimeOf(pids)
	if err != nil {
		return nil, err
	}
	self0, err := cpuTimeOf([]int{selfPID})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	begin := make(chan struct{})
	for ci := range r.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			// main's deferred cleanup does not run for a panic on this
			// goroutine; take the daemons down before it ends the process.
			defer func() {
				if p := recover(); p != nil {
					killAll()
					panic(p)
				}
			}()
			<-begin
			r.replay(ci)
		}(ci)
	}
	lr := &lapResult{start: time.Now()}
	close(begin)
	wg.Wait()
	lr.end = time.Now()
	cpu1, err := cpuTimeOf(pids)
	if err != nil {
		return nil, err
	}
	self1, err := cpuTimeOf([]int{selfPID})
	if err != nil {
		return nil, err
	}
	lr.daemonCPU, lr.loadgenCPU = cpu1-cpu0, self1-self0
	r.verify(lr)
	if lr.completed() == 0 {
		return nil, fmt.Errorf("no op of the lap completed: %v", lr.errs)
	}
	return lr, nil
}

// replay runs connection ci's plan, closed loop.
func (r *runner) replay(ci int) {
	cn := r.conns[ci]
	recs := r.recs[ci]
	arena := r.arena[ci][:0]
	for i, o := range r.w.plan[ci] {
		var req []byte
		if o.kind == opQuery {
			req = r.pay.query[o.idx]
		} else {
			req = r.pay.publish[o.idx][o.variant]
		}
		rec := &recs[i]
		tx0, rx0 := cn.sent(), cn.received()
		var sent *time.Time
		if r.tracing {
			sent = &rec.sent
		}
		rec.start = time.Now()
		reply, err := cn.do(req, sent)
		rec.end = time.Now()
		rec.err = err
		rec.txBytes, rec.rxBytes = int(cn.sent()-tx0), int(cn.received()-rx0)
		rec.off, rec.n = len(arena), len(reply)
		arena = append(arena, reply...)
		if err != nil {
			if _, isHTTP := err.(*httpError); !isHTTP {
				// Timed out or broken: a fresh socket, so a late reply
				// cannot be mis-attributed to the next request.
				if derr := cn.redial(); derr != nil {
					rec.err = fmt.Errorf("%v; redial: %v", err, derr)
				}
			}
		}
	}
	r.arena[ci] = arena
}

// verify checks every reply of the lap and folds the verified ops into
// lr. A failed op (timeout, error reply, partial, hit set differing from
// the oracle) counts against attempted and stays out of every metric.
func (r *runner) verify(lr *lapResult) {
	lr.samples = make([]sample, 0, r.w.lapOps())
	for ci := range r.conns {
		plan, recs, arena := r.w.plan[ci], r.recs[ci], r.arena[ci]
		for i := range plan {
			o, rec := plan[i], &recs[i]
			lr.attempted++
			rec.verifyStart = time.Now()
			err := rec.err
			if err == nil {
				body := arena[rec.off : rec.off+rec.n]
				if o.kind == opQuery {
					rec.hits, err = r.w.checkQueryReply(int(o.idx), body)
				} else {
					err = checkPublishReply(body)
				}
			}
			rec.verifyEnd = time.Now()
			if err != nil {
				lr.failed++
				if len(lr.errs) < 5 {
					lr.errs = append(lr.errs, fmt.Sprintf("conn %d op %d: %v", ci, i, err))
				}
				continue
			}
			lr.samples = append(lr.samples, sample{o.kind, rec.end, float64(rec.end.Sub(rec.start).Nanoseconds()) / 1e3})
			if o.kind == opQuery {
				lr.queries++
				lr.queryTx += int64(rec.txBytes)
				lr.queryRx += int64(rec.rxBytes)
				lr.hits += rec.hits
			} else {
				lr.publishes++
			}
		}
	}
}
