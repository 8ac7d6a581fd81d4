package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/wire"
)

// gameRun is what one played game leaves for the metrics. Every time is in
// nanoseconds on the game clock, whose origin is the start of transport
// construction.
type gameRun struct {
	warmup int

	first int64 // dispatch of the first round directive (= set-up time)
	end   int64 // the entry point returned (after any row fetch and stop)

	// posts[k] is when round k+1 was posted; pause[k] is how long the
	// benchmark's OnRound hook held the coordinator after that post.
	posts, pause []int64

	// cpu[k] is the process CPU time (all threads, user + system) when round
	// k+1 was posted, and cpuPause[k] what the hook itself used after it.
	// The kernel charges a thread only for time it ran, so CPU time leaves
	// out what a shared host's other tenants take (steal), which wall time
	// cannot. gameCPU is the CPU time of the whole game, from transport
	// construction until the entry point returned.
	cpu, cpuPause []int64
	gameCPU       int64

	calls   []call
	out     *outcome
	fetched int // kept rows streamed through Consume

	// Runtime counters at the posts of the last warm-up round and of the
	// last round.
	mem0, mem1 runtime.MemStats

	// retained is the heap the finished game leaves behind, between two GC
	// fences, with the workers gone.
	retained int64
}

// playGame plays one game of the given length. A traced game attaches an
// obs.Registry, captures round traffic and, between rounds, replays it
// (decode replies, re-encode directives) off the game clock.
func playGame(g *game, rounds, warmup int, traced bool) (*gameRun, error) {
	run := &gameRun{
		warmup:   warmup,
		posts:    make([]int64, 0, rounds),
		pause:    make([]int64, 0, rounds),
		cpu:      make([]int64, 0, rounds),
		cpuPause: make([]int64, 0, rounds),
	}
	// Sized so the log never grows during the game: a steady round makes one
	// call per slot, warm-up and the row fetch a few more.
	rec := &recorder{capture: traced, calls: make([]call, 0, 16*rounds+1024)}
	var met *obs.Registry
	if traced {
		met = obs.NewRegistry()
	}
	var replayErr error
	replayed := 0
	onRound := func(collect.RoundRecord) {
		t, c := rec.now(), cpuTime()
		run.posts = append(run.posts, t)
		run.cpu = append(run.cpu, c)
		k := len(run.posts)
		if traced && replayErr == nil {
			replayed, replayErr = rec.replay(replayed)
		}
		if k == warmup {
			runtime.ReadMemStats(&run.mem0)
		}
		if k == rounds {
			runtime.ReadMemStats(&run.mem1)
		}
		run.cpuPause = append(run.cpuPause, cpuTime()-c)
		run.pause = append(run.pause, rec.now()-t)
	}
	var consume func(int, [][]float64, []int) error
	if g.rows {
		consume = func(_ int, rows [][]float64, _ []int) error {
			run.fetched += len(rows)
			return nil
		}
	}

	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	fence(&before)

	rec.origin = obs.Now()
	cpu0 := cpuTime()
	tr, release, err := g.dial()
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	rec.tr = tr
	out, err := g.play(rec, hooks{rounds: rounds, onRound: onRound, metrics: met, consume: consume})
	run.end = rec.now()
	run.gameCPU = cpuTime() - cpu0
	release()
	rec.tr = nil
	settle(goroutines)
	if err != nil {
		return nil, err
	}
	if replayErr != nil {
		return nil, fmt.Errorf("trace replay: %w", replayErr)
	}
	if len(run.posts) != rounds {
		return nil, fmt.Errorf("%d rounds posted, want %d", len(run.posts), rounds)
	}
	fence(&after)
	run.retained = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(out)

	run.out = out
	run.calls = rec.calls
	run.first = -1
	for i := range run.calls {
		if c := &run.calls[i]; roundOp(c.op) && (run.first < 0 || c.start < run.first) {
			run.first = c.start
		}
	}
	if run.first < 0 {
		return nil, fmt.Errorf("no round directive was dispatched")
	}
	return run, nil
}

// cpuTime returns the process's CPU time so far, in nanoseconds: user and
// system time of every thread.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// fence collects twice — the second cycle frees what sync.Pool victim
// caches held through the first — and reads the heap account.
func fence(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// settle waits, up to a few seconds, until the goroutines a game started
// have exited — the TCP connection handlers outlive the stop reply by a
// moment, and until they exit they pin their worker's state on the heap the
// retained-bytes fence measures.
func settle(goroutines int) {
	for i := 0; i < 500 && runtime.NumGoroutine() > goroutines; i++ {
		time.Sleep(10 * time.Millisecond)
	}
}

// roundOp reports whether a directive serves a round, as opposed to the
// game's configure, the row fetch or the stop broadcast.
func roundOp(op wire.Op) bool {
	return op != wire.OpConfigure && op != wire.OpStop && op != wire.OpFetchRows
}

// replay decodes the replies captured since call index from and re-encodes
// their directives, timing each off the game clock, and keeps what the
// layer budget needs from the decoded reply. It runs inside the OnRound
// hook, when no call is in flight, and returns the index to resume from.
func (r *recorder) replay(from int) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := from; i < len(r.calls); i++ {
		c := &r.calls[i]
		if c.rep == nil {
			continue
		}
		t := obs.Now()
		rep, err := wire.DecodeReport(c.rep)
		c.decode = int64(obs.Since(t))
		if err != nil {
			return i, err
		}
		d, err := wire.DecodeDirective(c.req)
		if err != nil {
			return i, err
		}
		t = obs.Now()
		wire.EncodeDirective(nil, d)
		c.encode = int64(obs.Since(t))
		c.gen, c.sum, c.cls = rep.GenerateNanos, rep.SummarizeNanos, rep.ClassifyNanos
		for _, m := range rep.MergeNanos {
			c.aggMerge += m
		}
		c.req, c.rep = nil, nil
	}
	return len(r.calls), nil
}

// verify is the correctness gate of one game: the board must equal the
// reference record for record; the row game must have streamed exactly the
// rows its board says were kept; and the recorder's directive bytes must
// agree with the program's own egress account.
func verify(g *game, run *gameRun) error {
	got := run.out.records
	if len(got) != len(g.ref) {
		return fmt.Errorf("board has %d records, reference %d", len(got), len(g.ref))
	}
	for i := range got {
		if !got[i].Equal(g.ref[i]) {
			return fmt.Errorf("round %d diverged from the reference:\n got  %+v\n want %+v", i+1, got[i], g.ref[i])
		}
	}
	if g.rows {
		kept := 0
		for _, r := range got {
			kept += r.HonestKept + r.PoisonKept
		}
		if run.fetched != kept {
			return fmt.Errorf("fetched %d kept rows, board kept %d", run.fetched, kept)
		}
	}
	var config, stop, total int64
	for i := range run.calls {
		c := &run.calls[i]
		total += int64(c.reqLen)
		switch c.op { //trimlint:allow opswitch only the ops outside the program's round egress account matter here
		case wire.OpConfigure:
			config += int64(c.reqLen)
		case wire.OpStop:
			stop += int64(c.reqLen)
		}
	}
	st := run.out.stats
	if config != st.EgressConfigBytes || total-config-stop != st.EgressBytes-st.EgressConfigBytes {
		return fmt.Errorf("egress cross-check: transport saw %d configure + %d round bytes, program counted %d + %d",
			config, total-config-stop, st.EgressConfigBytes, st.EgressBytes-st.EgressConfigBytes)
	}
	return nil
}

// arrivals is the number of points a round took in, honest and poison.
func arrivals(r collect.RoundRecord) int {
	return r.HonestKept + r.HonestTrimmed + r.PoisonKept + r.PoisonTrimmed
}

// failures is a game's failure count: transport calls that failed, or
// shards the program reports lost (which includes leaves lost below an
// aggregator), whichever is larger.
func (run *gameRun) failures() int {
	failed := 0
	for i := range run.calls {
		if run.calls[i].failed {
			failed++
		}
	}
	return max(failed, run.out.stats.LostShards)
}
