package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; a run reports every entry of one of them.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a timed run (--trace 0) reports, measured with
// tracing off.
var endToEnd = []metricDef{
	{"points_per_cpu_s", "1/s", "higher"},
	{"round_cpu_ms_p50", "ms", "lower"},
	{"round_cpu_ms_p90", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"game_cpu_s", "s", "lower"},
	{"alloc_bytes_per_round", "bytes", "lower"},
	{"egress_bytes_per_round", "bytes", "lower"},
	{"ingress_bytes_per_round", "bytes", "lower"},
	{"coord_retained_bytes", "bytes", "lower"},
}

// perLayer are the metrics a traced run (--trace 1) reports. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"wall.points_per_s", "1/s", "higher"},
	{"wall.round_ms_p50", "ms", "lower"},
	{"wall.round_ms_p90", "ms", "lower"},
	{"wall.game_s", "s", "lower"},
	{"worker.generate_ms_per_round", "ms", "lower"},
	{"worker.summarize_ms_per_round", "ms", "lower"},
	{"worker.classify_ms_per_round", "ms", "lower"},
	{"worker.busy_skew", "ratio", "lower"},
	{"transport.calls_per_round", "count", "lower"},
	{"transport.call_ms_p50", "ms", "lower"},
	{"transport.call_ms_p90", "ms", "lower"},
	{"transport.overhead_ms_per_round", "ms", "lower"},
	{"transport.calls_failed", "count", "lower"},
	{"wire.report_bytes_p50", "bytes", "lower"},
	{"wire.decode_report_ms_per_round", "ms", "lower"},
	{"wire.encode_directive_us_per_round", "us", "lower"},
	{"collect.self_ms_per_round", "ms", "lower"},
	{"collect.fanout_ms_per_round", "ms", "lower"},
	{"collect.merge_ms_per_round", "ms", "lower"},
	{"collect.fanouts_per_round", "count", "lower"},
	{"agg.merge_ms_per_round", "ms", "lower"},
	{"agg.tree_leaves", "count", "higher"},
	{"agg.tree_height", "count", "lower"},
	{"rowstore.pool_rows", "count", "higher"},
	{"rowstore.fetch_calls", "count", "lower"},
	{"rowstore.fetch_rows_per_s", "1/s", "higher"},
	{"rowstore.fetch_s", "s", "lower"},
	{"runtime.gc_cycles_per_round", "count", "lower"},
	{"runtime.gc_pause_ms_per_round", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.round_ms_mean", "ms", "lower"},
	{"trace.unattributed_ms_per_round", "ms", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and prints each, with its unit and
// the samples behind it, as it is set.
type report struct {
	out     io.Writer
	defs    []metricDef
	metrics map[string]metric
}

func newReport(out io.Writer, defs []metricDef) *report {
	return &report{out: out, defs: defs, metrics: make(map[string]metric, len(defs))}
}

func (r *report) set(name string, v float64, note string, args ...any) {
	unit := ""
	for _, d := range r.defs {
		if d.name == name {
			unit = d.unit
		}
	}
	if unit == "" {
		panic("perfbench: metric " + name + " is not declared") // a typo in this file
	}
	r.metrics[name] = metric{v, unit}
	fmt.Fprintf(r.out, "%-36s %16.6g %-6s %s\n", name, v, unit, fmt.Sprintf(note, args...))
}

// complete checks that every declared metric was set to a finite number.
func (r *report) complete() error {
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	return nil
}

// perGame keeps one figure per game: throughput and round percentiles on
// one clock.
type perGame struct {
	rate, p50, p90 []float64
}

// add records one game's steady round intervals (ns) over which the given
// number of points arrived, and returns how many intervals lie above its
// p90.
func (p *perGame) add(iv []int64, points int) int {
	var total int64
	ms := make([]float64, len(iv))
	for i, d := range iv {
		total += d
		ms[i] = float64(d) / 1e6
	}
	p50, _ := percentile(ms, 0.5)
	p90, above := percentile(ms, 0.9)
	p.rate = append(p.rate, float64(points)/(float64(total)/1e9))
	p.p50 = append(p.p50, p50)
	p.p90 = append(p.p90, p90)
	return above
}

// steadyAgg pools the steady windows of several games and keeps each game's
// figures on both clocks: wall time, which is what a caller waits, and
// process CPU time, which is what the game costs and which a shared host's
// co-tenants cannot inflate by taking the CPU away.
type steadyAgg struct {
	games     int
	rounds    int
	points    int
	egress    int64
	ingress   int64
	alloc     uint64
	gc        uint32
	gcPauseNs uint64
	above90   int // fewest intervals above a game's p90

	wall, cpu         perGame
	gameWall, gameCPU []float64 // seconds per whole game
}

func (a *steadyAgg) add(run *gameRun) {
	window, iv := steady(run.posts, run.pause, run.warmup)
	_, civ := steady(run.cpu, run.cpuPause, run.warmup)
	a.games++
	a.rounds += len(iv)
	points := 0
	for _, r := range run.out.records[run.warmup:] {
		points += arrivals(r)
	}
	a.points += points
	above := a.wall.add(iv, points)
	a.cpu.add(civ, points)
	if a.games == 1 || above < a.above90 {
		a.above90 = above
	}
	a.gameWall = append(a.gameWall, float64(run.end-run.first)/1e9)
	a.gameCPU = append(a.gameCPU, float64(run.gameCPU)/1e9)
	for i := range run.calls {
		if c := &run.calls[i]; window.in(c.start) {
			a.egress += int64(c.reqLen)
			a.ingress += int64(c.repLen)
		}
	}
	a.alloc += run.mem1.TotalAlloc - run.mem0.TotalAlloc
	a.gc += run.mem1.NumGC - run.mem0.NumGC
	a.gcPauseNs += run.mem1.PauseTotalNs - run.mem0.PauseTotalNs
}

// perRound divides a steady-window total by the steady round count.
func (a *steadyAgg) perRound(total float64) float64 { return total / float64(a.rounds) }

// printGames prints each game's figures on both clocks.
func (a *steadyAgg) printGames(out io.Writer) {
	for i := 0; i < a.games; i++ {
		fmt.Fprintf(out, "game %d: wall %.4g points/s, round p50 %.4g ms, p90 %.4g ms, %.4g s; cpu %.4g points/s, round p50 %.4g ms, p90 %.4g ms, %.4g s\n",
			i+1, a.wall.rate[i], a.wall.p50[i], a.wall.p90[i], a.gameWall[i],
			a.cpu.rate[i], a.cpu.p50[i], a.cpu.p90[i], a.gameCPU[i])
	}
}

// timedReport computes the end-to-end metrics from the timed games and the
// set-up probes. The throughput and round metrics are on the CPU clock and
// take the median over games; the wall-clock figures are printed beside
// them and reported as per-layer metrics by a traced run.
func timedReport(out io.Writer, probes, games []*gameRun) *report {
	r := newReport(out, endToEnd)
	var a steadyAgg
	var setups, retained []float64
	for _, g := range probes {
		setups = append(setups, float64(g.first)/1e9)
	}
	for _, g := range games {
		a.add(g)
		setups = append(setups, float64(g.first)/1e9)
		retained = append(retained, float64(g.retained))
	}
	a.printGames(out)
	perGame := a.rounds / a.games
	r.set("points_per_cpu_s", median(a.cpu.rate), "median of %d games; %d arrivals over %d steady rounds in all", a.games, a.points, a.rounds)
	r.set("round_cpu_ms_p50", median(a.cpu.p50), "median of %d games' p50, %d rounds each", a.games, perGame)
	r.set("round_cpu_ms_p90", median(a.cpu.p90), "median of %d games' p90, %d rounds each, at least %d above", a.games, perGame, a.above90)
	r.set("setup_s", median(setups), "median of %d set-ups (%d one-round probes, %d games)", len(setups), len(probes), len(games))
	r.set("game_cpu_s", median(a.gameCPU), "median of %d games, transport construction to return", a.games)
	r.set("alloc_bytes_per_round", a.perRound(float64(a.alloc)), "process TotalAlloc over %d steady rounds", a.rounds)
	r.set("egress_bytes_per_round", a.perRound(float64(a.egress)), "coordinator request bytes over %d steady rounds", a.rounds)
	r.set("ingress_bytes_per_round", a.perRound(float64(a.ingress)), "coordinator reply bytes over %d steady rounds", a.rounds)
	r.set("coord_retained_bytes", median(retained), "median of %d games, heap after the game between GC fences", len(retained))
	fmt.Fprintf(out, "wall clock (median of %d games): %.4g points/s, round p50 %.4g ms, p90 %.4g ms, game %.4g s\n",
		a.games, median(a.wall.rate), median(a.wall.p50), median(a.wall.p90), median(a.gameWall))
	return r
}

// layerAgg pools the layer accounts of the traced games.
type layerAgg struct {
	games, rounds int

	roundNs, selfNs        int64
	calls, fanouts, failed int
	callMs, repBytes, skew []float64

	genNs, sumNs, clsNs, busyNs int64 // per fan-out maxima, summed
	overheadNs                  int64
	decodeNs, encodeNs          int64
	aggMergeNs                  int64

	fanoutNs, mergeNs float64 // the program's Timing account, scaled to the steady rounds

	leaves, height int

	poolRows, fetchCalls int
	fetchNs              int64
}

// fanout is one connected group of overlapping calls: the parallel calls
// of one engine fan-out.
type fanout struct {
	gen, sum, cls, busy, decode, aggMerge int64
	busySum                               int64
	n                                     int
}

func (l *layerAgg) add(run *gameRun) {
	window, iv := steady(run.posts, run.pause, run.warmup)
	l.games++
	l.rounds += len(iv)
	var roundNs int64
	for _, d := range iv {
		roundNs += d
	}
	l.roundNs += roundNs

	var spans []span
	var idx []int
	for i := range run.calls {
		c := &run.calls[i]
		if c.failed {
			l.failed++
		}
		if c.op == wire.OpFetchRows {
			l.fetchCalls++
		}
		if !window.in(c.start) {
			continue
		}
		spans = append(spans, c.span())
		idx = append(idx, i)
		l.callMs = append(l.callMs, float64(c.end-c.start)/1e6)
		l.repBytes = append(l.repBytes, float64(c.repLen))
		l.encodeNs += c.encode
	}
	l.calls += len(spans)
	comps, comp := union(spans)
	l.fanouts += len(comps)
	fans := make([]fanout, len(comps))
	for j, i := range idx {
		c, f := &run.calls[i], &fans[comp[j]]
		f.gen, f.sum, f.cls = max(f.gen, c.gen), max(f.sum, c.sum), max(f.cls, c.cls)
		f.busy, f.decode, f.aggMerge = max(f.busy, c.busy()), max(f.decode, c.decode), max(f.aggMerge, c.aggMerge)
		f.busySum += c.busy()
		f.n++
	}
	for k, f := range fans {
		l.genNs += f.gen
		l.sumNs += f.sum
		l.clsNs += f.cls
		l.busyNs += f.busy
		l.decodeNs += f.decode
		l.aggMergeNs += f.aggMerge
		l.overheadNs += comps[k].len() - f.busy
		if f.n > 1 && f.busySum > 0 {
			l.skew = append(l.skew, float64(f.busy)*float64(f.n)/float64(f.busySum))
		}
	}
	l.selfNs += roundNs - covered(comps, window)

	st := run.out.stats
	share := float64(len(iv)) / float64(st.Timing.Rounds)
	l.fanoutNs += float64(st.Timing.DataPlane()) * share
	l.mergeNs += float64(st.Timing.Merge) * share
	l.leaves, l.height = st.TreeLeaves, st.TreeHeight
	if run.fetched > 0 {
		l.poolRows += run.fetched
		l.fetchNs += run.end - run.posts[len(run.posts)-1]
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tracedReport computes the per-layer metrics: the layer accounts from the
// traced games, the runtime counters and the trace's own overhead from the
// untraced games played in the same run.
func tracedReport(out io.Writer, plain, traced []*gameRun) *report {
	r := newReport(out, perLayer)
	var p, t steadyAgg
	for _, g := range plain {
		p.add(g)
	}
	var l layerAgg
	for _, g := range traced {
		t.add(g)
		l.add(g)
	}
	n := float64(l.rounds)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	steadyNote := fmt.Sprintf("over %d steady rounds of %d traced games", l.rounds, l.games)

	r.set("worker.generate_ms_per_round", ms(l.genNs), "slowest slot per fan-out, %s", steadyNote)
	r.set("worker.summarize_ms_per_round", ms(l.sumNs), "slowest slot per fan-out, %s", steadyNote)
	r.set("worker.classify_ms_per_round", ms(l.clsNs), "slowest slot per fan-out, %s", steadyNote)
	r.set("worker.busy_skew", mean(l.skew), "max/mean slot busy, mean of %d fan-outs", len(l.skew))

	callMs := append([]float64(nil), l.callMs...)
	c50, above50 := percentile(callMs, 0.5)
	c90, above90 := percentile(callMs, 0.9)
	r.set("transport.calls_per_round", float64(l.calls)/n, "%d calls %s", l.calls, steadyNote)
	r.set("transport.call_ms_p50", c50, "n=%d calls, %d above", len(callMs), above50)
	r.set("transport.call_ms_p90", c90, "n=%d calls, %d above", len(callMs), above90)
	r.set("transport.overhead_ms_per_round", ms(l.overheadNs), "fan-out wall minus slowest slot busy, %s", steadyNote)
	r.set("transport.calls_failed", float64(l.failed), "over every call of %d traced games", l.games)

	reps := append([]float64(nil), l.repBytes...)
	b50, _ := percentile(reps, 0.5)
	r.set("wire.report_bytes_p50", b50, "n=%d replies", len(reps))
	r.set("wire.decode_report_ms_per_round", ms(l.decodeNs), "replayed off the clock, slowest reply per fan-out")
	r.set("wire.encode_directive_us_per_round", float64(l.encodeNs)/1e3/n, "replayed off the clock, every directive")

	r.set("collect.self_ms_per_round", ms(l.selfNs), "round interval outside every in-flight call, %s", steadyNote)
	r.set("collect.fanout_ms_per_round", l.fanoutNs/1e6/n, "Timing.DataPlane per round played")
	r.set("collect.merge_ms_per_round", l.mergeNs/1e6/n, "Timing.Merge per round played")
	r.set("collect.fanouts_per_round", float64(l.fanouts)/n, "%d fan-outs %s", l.fanouts, steadyNote)

	r.set("agg.merge_ms_per_round", ms(l.aggMergeNs), "summed Report.MergeNanos levels, slowest reply per fan-out")
	r.set("agg.tree_leaves", float64(l.leaves), "live leaves behind the direct slots")
	r.set("agg.tree_height", float64(l.height), "merge levels above the leaves")

	games := float64(l.games)
	fetchS := float64(l.fetchNs) / 1e9 / games
	rowsPerS := 0.0
	if l.fetchNs > 0 {
		rowsPerS = float64(l.poolRows) / (float64(l.fetchNs) / 1e9)
	}
	r.set("rowstore.pool_rows", float64(l.poolRows)/games, "kept rows streamed per game")
	r.set("rowstore.fetch_calls", float64(l.fetchCalls)/games, "OpFetchRows calls per game")
	r.set("rowstore.fetch_rows_per_s", rowsPerS, "rows streamed per second of fetch")
	r.set("rowstore.fetch_s", fetchS, "last round posted to the entry point's return, per game")

	r.set("wall.points_per_s", median(p.wall.rate), "median of %d untraced games", p.games)
	r.set("wall.round_ms_p50", median(p.wall.p50), "median of %d untraced games' p50", p.games)
	r.set("wall.round_ms_p90", median(p.wall.p90), "median of %d untraced games' p90, at least %d above", p.games, p.above90)
	r.set("wall.game_s", median(p.gameWall), "median of %d untraced games, first round directive to return", p.games)

	r.set("runtime.gc_cycles_per_round", float64(p.gc)/float64(p.rounds), "over %d steady rounds of %d untraced games", p.rounds, p.games)
	r.set("runtime.gc_pause_ms_per_round", float64(p.gcPauseNs)/1e6/float64(p.rounds), "over %d steady rounds of %d untraced games", p.rounds, p.games)

	round := ms(l.roundNs)
	unattributed := round - ms(l.busyNs) - ms(l.overheadNs) - l.mergeNs/1e6/n - ms(l.decodeNs) - float64(l.encodeNs)/1e6/n
	tRate, pRate := median(t.cpu.rate), median(p.cpu.rate)
	r.set("trace.overhead_ratio", tRate/pRate, "traced %.4g vs untraced %.4g points per CPU second", tRate, pRate)
	r.set("trace.round_ms_mean", round, "traced round interval, replay pauses excluded")
	r.set("trace.unattributed_ms_per_round", unattributed, "round minus every attributed layer below")
	fmt.Fprintf(out, "budget per steady round: %.3f ms = worker busy %.3f + transport %.3f (of which agg merge %.3f) + coordinator self %.3f [merge %.3f, decode %.3f, encode %.3f, unattributed %.3f]\n",
		round, ms(l.busyNs), ms(l.overheadNs), ms(l.aggMergeNs), ms(l.selfNs),
		l.mergeNs/1e6/n, ms(l.decodeNs), float64(l.encodeNs)/1e6/n, unattributed)
	return r
}
