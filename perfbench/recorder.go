package main

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

// call is one transport round trip as the coordinator saw it.
type call struct {
	worker     int
	op         wire.Op
	start, end int64 // ns since the game's clock origin
	reqLen     int
	repLen     int
	failed     bool

	// req and rep are the encoded directive and reply, captured only by a
	// traced game and released once the trace has replayed them.
	req, rep []byte

	// Filled by the trace replay (zero in a timed game): the worker's phase
	// nanos from the reply, the summed aggregator merge nanos on the reply's
	// path, and how long decoding the reply and re-encoding the directive
	// took off the clock.
	gen, sum, cls int64
	aggMerge      int64
	decode        int64
	encode        int64
}

func (c *call) span() span  { return span{c.start, c.end} }
func (c *call) busy() int64 { return c.gen + c.sum + c.cls }

// directiveOp reads the op code of an encoded directive: it is the byte
// after the four-byte header wire.EncodeDirective writes. Reading one byte
// keeps the timed path free of decoding; should the layout move, the
// egress cross-check in verify stops matching and fails the run.
func directiveOp(req []byte) wire.Op {
	if len(req) < 5 {
		return 0
	}
	return wire.Op(req[4])
}

// recorder wraps the game's transport and logs every Call: op, start and
// end on the game clock, request and reply sizes, and failure. It does no
// decoding inside Call, so the latencies it sees are the transport's own.
// The log is preallocated by the caller before the retained-heap fence.
type recorder struct {
	tr      cluster.Transport
	origin  time.Time
	capture bool

	mu    sync.Mutex
	calls []call
}

func (r *recorder) Workers() int { return r.tr.Workers() }
func (r *recorder) Close() error { return r.tr.Close() }

func (r *recorder) Call(worker int, req []byte) ([]byte, error) {
	start := obs.Since(r.origin)
	rep, err := r.tr.Call(worker, req)
	end := obs.Since(r.origin)
	c := call{
		worker: worker, op: directiveOp(req),
		start: int64(start), end: int64(end),
		reqLen: len(req), repLen: len(rep),
		failed: err != nil,
	}
	// Round traffic only: configure payloads, stop acknowledgements and the
	// game-end row pages are never replayed, and holding the pages would
	// pin every kept row until the game ends.
	if r.capture && err == nil && c.op != wire.OpConfigure && c.op != wire.OpStop && c.op != wire.OpFetchRows {
		c.req, c.rep = req, rep
	}
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
	return rep, err
}

// now reads the game clock.
func (r *recorder) now() int64 { return int64(obs.Since(r.origin)) }
