// Command perfbench is the repository's end-to-end benchmark: it plays the
// trimming game's three cluster workloads (scalar-bulk, ldp-tcp, rows-tree;
// see workloads.go) through the public collect entry points, times them
// from outside, checks every game's board against the in-process
// reference, and prints one metric per line followed by a JSON summary.
//
//	bash perfbench/run.sh --workload scalar-bulk --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// plays untraced and traced games and reports the per-layer budget. The
// end-to-end round and throughput metrics are taken on the process CPU
// clock. On a shared virtual machine the host lends the vCPUs to other
// tenants for stretches of a minute or more; that stolen time stretches
// wall-clock rounds by up to half, but the kernel does not charge it to the
// process. Wall-clock figures are printed beside them and reported as the
// wall.* per-layer metrics. The
// seed derives every dataset and ShardGen master seed. Seed 1 is the
// default; seed 2 is held back for confirming a claimed gain on inputs the
// change was not tuned on. The run exits non-zero when a board, the
// fetched row count or the egress cross-check disagrees.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

const (
	defaultSeed = 1
	setupProbes = 10 // one-round games played only to sample set-up time
)

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: scalar-bulk, ldp-tcp or rows-tree")
	seed := fs.Int64("seed", defaultSeed, "workload seed (1 is the default, 2 the held-back confirmation seed)")
	seconds := fs.Float64("seconds", 10, "seconds of timed games to play")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}

	fmt.Fprintf(stdout, "workload %s, seed %d, %d rounds per game (%d warm-up), trace %d\n", w.name, *seed, w.rounds, w.warmup, *trace)
	g, err := w.prepare(*seed, w.rounds)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	b := &bench{w: w, g: g, out: stdout}
	var rep *report
	if *trace == 0 {
		var probes, games []*gameRun
		if probes, err = b.play(1, setupProbes, 0, false); err == nil {
			games, err = b.play(w.rounds, 1, *seconds, false)
		}
		if err == nil {
			rep = timedReport(stdout, probes, games)
		}
	} else {
		var plain, traced []*gameRun
		if plain, err = b.play(w.rounds, 1, *seconds/2, false); err == nil {
			traced, err = b.play(w.rounds, 1, *seconds/2, true)
		}
		if err == nil {
			rep = tracedReport(stdout, plain, traced)
		}
	}
	if err == nil {
		err = rep.complete()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	fmt.Fprintf(stdout, "failure account: %d transport calls attempted, %d failed or lost; %d board mismatches\n",
		b.attempted, b.failed, b.mismatches)
	out, err := json.Marshal(summary{Correct: b.mismatches == 0, Attempted: b.attempted, Failed: b.failed, Metrics: rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if b.mismatches > 0 {
		return 1
	}
	return 0
}

// bench plays one workload's games and keeps the run's failure account.
type bench struct {
	w   workload
	g   *game
	out io.Writer

	attempted, failed, mismatches int
}

// play plays games of the given length — at least minGames, and more while
// another game is likely to end within seconds of play — and checks every
// full-length game against the reference. A one-round game only samples
// set-up; its board is not the reference's prefix (the summaries size
// themselves to the game's length).
func (b *bench) play(rounds, minGames int, seconds float64, traced bool) ([]*gameRun, error) {
	warmup := min(b.w.warmup, rounds)
	var runs []*gameRun
	start := obs.Now()
	last := 0.0 // seconds the previous game took
	for len(runs) < minGames || obs.Since(start).Seconds()+last/2 < seconds {
		t := obs.Now()
		run, err := playGame(b.g, rounds, warmup, traced)
		if err != nil {
			return nil, err
		}
		last = obs.Since(t).Seconds()
		b.attempted += len(run.calls)
		b.failed += run.failures()
		if rounds == b.w.rounds {
			if err := verify(b.g, run); err != nil {
				b.mismatches++
				fmt.Fprintf(b.out, "MISMATCH in game %d: %v\n", len(runs)+1, err)
			}
		}
		runs = append(runs, run)
	}
	return runs, nil
}
