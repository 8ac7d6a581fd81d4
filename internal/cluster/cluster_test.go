package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

func call(t *testing.T, tr Transport, w int, d *wire.Directive) *wire.Report {
	t.Helper()
	out, err := tr.Call(w, wire.EncodeDirective(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// scalarConf configures a scalar generator: honest values drawn from pool,
// poison resolved on the sorted reference ref.
func scalarConf(pool, ref []float64) *wire.Directive {
	return &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01, Pool: pool, RefSorted: ref}
}

// pointGen is a generator spec whose poison all lands at the top of the
// percentile scale with no jitter, so a single-valued pool makes every draw
// predictable.
func pointGen(honest, poison int) *wire.GenSpec {
	return &wire.GenSpec{Seed: 7, HonestN: honest, PoisonN: poison, InjectKind: byte(attack.SpecPoint), InjectHi: 1}
}

// One full worker round over the loopback: configure, generate, classify.
func TestWorkerRound(t *testing.T) {
	tr := NewLoopback(1)
	call(t, tr, 0, scalarConf([]float64{3}, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}))

	// 8 honest draws of 3, then 2 poison at the reference maximum 10.
	rep := call(t, tr, 0, &wire.Directive{Op: wire.OpGenerate, Round: 1, Gen: pointGen(8, 2)})
	if rep.Count != 10 || rep.ValueSum != 44 || rep.PctSum != 2 {
		t.Fatalf("generate report: count %d sum %v pct sum %v", rep.Count, rep.ValueSum, rep.PctSum)
	}
	if got := rep.Sum.Query(0.5); got != 3 {
		t.Fatalf("median of shard summary = %v", got)
	}

	rep = call(t, tr, 0, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: 8.5})
	want := wire.Counts{HonestKept: 8, HonestTrimmed: 0, PoisonKept: 0, PoisonTrimmed: 2}
	// The two poison values (10) are above threshold 8.5.
	if rep.Counts != want {
		t.Fatalf("counts %+v, want %+v", rep.Counts, want)
	}
	if rep.KeptCount != 8 || rep.KeptSum != 24 {
		t.Fatalf("kept aggregates: count %d sum %v", rep.KeptCount, rep.KeptSum)
	}
	if rep.PoolRows != nil || rep.Vec != nil {
		t.Fatalf("scalar classify carried row-game fields: pool %v vec %+v", rep.PoolRows, rep.Vec)
	}
}

// The row phase: distances from the directive's center, a vector delta of
// the accepted rows, and the kept rows appended to the worker-held pool
// (reported by total, paged out by OpFetchRows).
func TestWorkerRowRound(t *testing.T) {
	tr := NewLoopback(1)
	call(t, tr, 0, &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01, Rows: [][]float64{{3, 4}}})

	// Honest rows are the one dataset row (3,4), distance 5 from the
	// origin; the poison row is pushed out along it to the scale's top, 10.
	gen := pointGen(2, 1)
	gen.Scale = summary.FromUnsorted([]float64{10})
	rep := call(t, tr, 0, &wire.Directive{Op: wire.OpGenerateRows, Round: 1, Center: []float64{0, 0}, Gen: gen})
	if rep.Count != 3 || rep.ValueSum != 20 {
		t.Fatalf("distance aggregates: count %d sum %v", rep.Count, rep.ValueSum)
	}

	rep = call(t, tr, 0, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: 6})
	if got, want := rep.Counts, (wire.Counts{HonestKept: 2, PoisonTrimmed: 1}); got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
	if len(rep.PoolRows) != 1 || rep.PoolRows[0] != 2 || rep.KeptRows != nil {
		t.Fatalf("classify reply: pool totals %v, %d kept rows shipped", rep.PoolRows, len(rep.KeptRows))
	}
	if rep.Vec == nil || rep.Vec.Count != 2 || len(rep.Vec.Dims) != 2 {
		t.Fatalf("vector delta %+v", rep.Vec)
	}
	// Kept rows (3,4) twice: coordinate sums 6 and 8.
	if rep.Vec.Sums[0] != 6 || rep.Vec.Sums[1] != 8 {
		t.Fatalf("vector sums %v", rep.Vec.Sums)
	}
	page := call(t, tr, 0, &wire.Directive{Op: wire.OpFetchRows, Lo: 0, Hi: 2})
	if len(page.KeptRows) != 2 || page.KeptRows[0][0] != 3 || page.KeptRows[1][1] != 4 {
		t.Fatalf("kept-row page %v", page.KeptRows)
	}
}

// Protocol misuse is an error, not corrupted state.
func TestWorkerPhaseErrors(t *testing.T) {
	w := NewWorker(0)
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpClassify, Round: 1})); err == nil {
		t.Fatal("classify before generate succeeded")
	}
	if _, err := w.Handle([]byte("not a directive")); err == nil {
		t.Fatal("garbage request succeeded")
	}
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpGenerate, Round: 1, Gen: pointGen(1, 0)})); err == nil {
		t.Fatal("generate without a configured generator succeeded")
	}
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01, Rows: [][]float64{{1}}})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpGenerateRows, Round: 1, Gen: pointGen(1, 0)})); err == nil {
		t.Fatal("generate-rows without center succeeded")
	}
}

func TestLoopbackFailureInjection(t *testing.T) {
	tr := NewLoopback(2)
	tr.Fail(1)
	if _, err := tr.Call(1, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure})); err == nil {
		t.Fatal("failed worker answered")
	}
	if _, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure})); err != nil {
		t.Fatalf("healthy worker errored: %v", err)
	}
	if _, err := tr.Call(7, nil); err == nil {
		t.Fatal("out-of-range worker answered")
	}
}

// TCP transport: a real socket round trip, worker shutdown on OpStop, and
// dial retry behavior.
func TestTCPServeAndDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(0)
	served := make(chan error, 1)
	go func() { served <- Serve(ln, w) }()

	tr, err := Dial([]string{ln.Addr().String()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epsilon != 0.02 {
		t.Fatalf("configure ack epsilon %v", rep.Epsilon)
	}
	if _, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpStop})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after OpStop")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialUnreachable(t *testing.T) {
	_, err := Dial([]string{"127.0.0.1:1"}, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "dial worker") {
		t.Fatalf("err = %v", err)
	}
	if _, err := Dial(nil, time.Second); err == nil {
		t.Fatal("empty address list accepted")
	}
}
