package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/dataset"
	"repro/internal/ldp"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trim"
)

// The three workloads. Each plays one shard-local, pipelined game through a
// public cluster entry point over two direct transport slots, with the
// paper's strategies and the default summary ε. A game is a closed loop:
// round r+1's threshold depends on round r's board, so a run plays games
// back to back at a fixed batch and reports work per second at that input
// size rather than a rate sweep.
//
// Which end-to-end metric each layer should move, and on which workload.
// The gated round and throughput metrics are on the process CPU clock (see
// steadyAgg); their wall-clock twins are the wall.* metrics of a traced run.
//
//	layer (module)          per-layer metrics  moves                                      on
//	cluster.Worker          worker.*           points_per_cpu_s, round_cpu_ms_p50         scalar-bulk
//	cluster transport       transport.*        wall.round_ms_p50/p90, round_cpu_ms_p50    ldp-tcp (≈0 on loopback)
//	wire                    wire.*             ingress_bytes_per_round, round_cpu_ms_p50  ldp-tcp
//	collect (coordinator)   collect.*          round_cpu_ms_p50                           rows-tree (self), ldp-tcp (merge)
//	agg                     agg.*              round_cpu_ms_p50                           rows-tree only
//	rowstore (OpFetchRows)  rowstore.*         game_cpu_s                                 rows-tree only
//	Go runtime              runtime.*          alloc_bytes_per_round, round_cpu_ms_p90    rows-tree, scalar-bulk
//	benchmark trace         trace.*            —                                          all
//
// Spill-backed worker pools are left out on purpose: they fsync a segment
// every round, and on a shared disk that cost does not repeat from run to
// run. The rows-tree workload keeps the in-memory pools.
var workloads = []workload{
	{
		// Per-point worker cost dominates: classify is most of each round.
		// The transport is an in-process loopback and there is no
		// aggregator or row store, so only the worker and coordinator
		// layers are exercised.
		name: "scalar-bulk", rounds: 120, warmup: 10,
		prepare: prepareScalar,
	},
	{
		// The paper's LDP case study and the only TCP path. Fixed per-round
		// costs — sketch replies of ~100 KB, net/rpc framing and the
		// coordinator fold — are a large share of a few-millisecond round.
		// A smaller batch makes rounds so short that their spread swamps
		// any change, so the batch stays at 10k.
		name: "ldp-tcp", rounds: 800, warmup: 50,
		prepare: prepareLDP,
	},
	{
		// Writes kept rows into the leaf pools every round and streams them
		// all back at game end; carries the aggregator merge and the
		// heaviest allocation; much of its round is coordinator time
		// outside any fan-out.
		name: "rows-tree", rounds: 150, warmup: 20,
		prepare: prepareRows,
	},
}

// workload is one benchmark game: its length and how to build its inputs.
type workload struct {
	name   string
	rounds int // rounds of a timed game
	warmup int // leading rounds no steady-window metric counts

	// prepare draws the workload's inputs from the seed and plays the
	// in-process reference game of the given length, both off the clock.
	prepare func(seed int64, rounds int) (*game, error)
}

// game is a prepared workload.
type game struct {
	// ref is the reference board: the in-process RunSharded* game with the
	// same ShardGen and leaf count, which every cluster game must match
	// record for record.
	ref []collect.RoundRecord

	// rows marks the row game, which streams every kept row at game end.
	rows bool

	// dial builds the transport. release stops whatever dial started and
	// waits for it; it is safe to call after the game has stopped the
	// workers.
	dial func() (tr cluster.Transport, release func(), err error)

	// play runs the game's public entry point over tr.
	play func(tr cluster.Transport, h hooks) (*outcome, error)
}

// hooks are what the benchmark attaches to one game.
type hooks struct {
	rounds  int
	onRound func(collect.RoundRecord)
	metrics *obs.Registry
	consume func(leaf int, rows [][]float64, labels []int) error
}

// outcome is what a game's entry point returned.
type outcome struct {
	res     any // kept alive across the retained-heap fence
	records []collect.RoundRecord
	stats   collect.ClusterStats
}

// deriveSeeds turns the workload seed into the dataset seed and the
// ShardGen master seed. The program only ever sees the generated inputs
// and the master seed.
func deriveSeeds(seed int64) (data, master int64) {
	rng := stats.NewRand(seed)
	return rng.Int63(), rng.Int63()
}

// prepareScalar: scalar game, Titfortat collector against the
// threshold-tracking adversary (the paper's τ_th = 0.9 setup), 200k honest
// arrivals plus 20% poison per round over two loopback workers.
func prepareScalar(seed int64, rounds int) (*game, error) {
	dataSeed, master := deriveSeeds(seed)
	ref := stats.NormalSlice(stats.NewRand(dataSeed), 5000, 0, 1)
	config := func(rounds int) (collect.Config, error) {
		col, err := trim.NewTitfortat(0.91, 0.87, 0.5)
		if err != nil {
			return collect.Config{}, err
		}
		adv, err := attack.NewTracking("Tracking", 0.89, -0.01)
		if err != nil {
			return collect.Config{}, err
		}
		return collect.Config{
			Rounds: rounds, Batch: 200_000, AttackRatio: 0.2,
			Reference: ref, Collector: col, Adversary: adv,
		}, nil
	}
	cfg, err := config(rounds)
	if err != nil {
		return nil, err
	}
	want, err := collect.RunSharded(collect.ShardedConfig{Config: cfg, Shards: 2, Gen: &collect.ShardGen{MasterSeed: master}})
	if err != nil {
		return nil, fmt.Errorf("scalar reference: %w", err)
	}
	return &game{
		ref:  want.Board.Records,
		dial: func() (cluster.Transport, func(), error) { return cluster.NewLoopback(2), func() {}, nil },
		play: func(tr cluster.Transport, h hooks) (*outcome, error) {
			cfg, err := config(h.rounds)
			if err != nil {
				return nil, err
			}
			cfg.OnRound = h.onRound
			res, err := collect.RunCluster(collect.ClusterConfig{
				Config: cfg, Transport: tr,
				Gen: &collect.ShardGen{MasterSeed: master}, Pipeline: true,
				Metrics: h.metrics,
			})
			if err != nil {
				return nil, err
			}
			return &outcome{res, res.Board.Records, res.ClusterStats}, nil
		},
	}, nil
}

// prepareLDP: the LDP case study — Piecewise ε = 2 over 100k Taxi inputs,
// Elastic collector against the Elastic adversary, batch 10k plus 20%
// poison, two in-process workers behind real TCP listeners.
func prepareLDP(seed int64, rounds int) (*game, error) {
	dataSeed, master := deriveSeeds(seed)
	inputs, err := dataset.TaxiN(stats.NewRand(dataSeed), 100_000).Column(0)
	if err != nil {
		return nil, err
	}
	mech, err := ldp.NewPiecewise(2)
	if err != nil {
		return nil, err
	}
	config := func(rounds int) (collect.LDPConfig, error) {
		col, err := trim.NewElastic(0.95, 0.5)
		if err != nil {
			return collect.LDPConfig{}, err
		}
		adv, err := attack.NewElastic(0.95, 0.5)
		if err != nil {
			return collect.LDPConfig{}, err
		}
		return collect.LDPConfig{
			Rounds: rounds, Batch: 10_000, AttackRatio: 0.2,
			Inputs: inputs, Mechanism: mech,
			Collector: col, Adversary: adv,
		}, nil
	}
	cfg, err := config(rounds)
	if err != nil {
		return nil, err
	}
	want, err := collect.RunShardedLDP(collect.LDPShardedConfig{LDPConfig: cfg, Shards: 2, Gen: &collect.ShardGen{MasterSeed: master}})
	if err != nil {
		return nil, fmt.Errorf("ldp reference: %w", err)
	}
	return &game{
		ref:  want.Board.Records,
		dial: func() (cluster.Transport, func(), error) { return dialTCP(2) },
		play: func(tr cluster.Transport, h hooks) (*outcome, error) {
			cfg, err := config(h.rounds)
			if err != nil {
				return nil, err
			}
			cfg.OnRound = h.onRound
			res, err := collect.RunClusterLDP(collect.LDPClusterConfig{
				LDPConfig: cfg, Transport: tr,
				Gen: &collect.ShardGen{MasterSeed: master}, Pipeline: true,
				Metrics: h.metrics,
			})
			if err != nil {
				return nil, err
			}
			return &outcome{res, res.Board.Records, res.ClusterStats}, nil
		},
	}, nil
}

// prepareRows: the row game on Vehicle (2000 × 18), Elastic against
// Elastic, batch 2000 plus 20% poison, late center and pipelined, over a
// four-leaf fan-in-2 aggregator tree (two direct slots) with in-memory
// leaf pools; every kept row is streamed back through Consume at game end.
func prepareRows(seed int64, rounds int) (*game, error) {
	dataSeed, master := deriveSeeds(seed)
	data := dataset.VehicleN(stats.NewRand(dataSeed), 2000)
	config := func(rounds int) (collect.RowConfig, error) {
		col, err := trim.NewElastic(0.9, 0.5)
		if err != nil {
			return collect.RowConfig{}, err
		}
		adv, err := attack.NewElastic(0.9, 0.5)
		if err != nil {
			return collect.RowConfig{}, err
		}
		return collect.RowConfig{
			Rounds: rounds, Batch: 2000, AttackRatio: 0.2,
			Data: data, Collector: col, Adversary: adv,
			PoisonLabel: -1,
		}, nil
	}
	cfg, err := config(rounds)
	if err != nil {
		return nil, err
	}
	want, err := collect.RunShardedRows(collect.RowShardedConfig{
		RowConfig: cfg, Shards: 4,
		Gen: &collect.ShardGen{MasterSeed: master}, LateCenter: true,
	})
	if err != nil {
		return nil, fmt.Errorf("rows reference: %w", err)
	}
	return &game{
		ref:  want.Board.Records,
		rows: true,
		dial: func() (cluster.Transport, func(), error) {
			tree, err := agg.NewTree(4, 2)
			return tree, func() {}, err
		},
		play: func(tr cluster.Transport, h hooks) (*outcome, error) {
			cfg, err := config(h.rounds)
			if err != nil {
				return nil, err
			}
			cfg.OnRound = h.onRound
			res, err := collect.RunClusterRows(collect.RowClusterConfig{
				RowConfig: cfg, Transport: tr,
				Gen: &collect.ShardGen{MasterSeed: master}, LateCenter: true, Pipeline: true,
				Consume: h.consume,
				Metrics: h.metrics,
			})
			if err != nil {
				return nil, err
			}
			return &outcome{res, res.Board.Records, res.ClusterStats}, nil
		},
	}, nil
}

// dialTCP serves n fresh in-process workers on loopback TCP listeners — the
// net/rpc path a `trimlab worker` process serves — and dials them. The
// servers return once the game's stop directive reaches them; release also
// closes the listeners, so it returns after a failed game too.
func dialTCP(n int) (cluster.Transport, func(), error) {
	var wg sync.WaitGroup
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	release := func() {
		for _, ln := range lns {
			ln.Close() // already closed by Serve after a stop; the error is moot
		}
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			release()
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func(w *cluster.Worker) {
			defer wg.Done()
			// A server that dies mid-game fails the coordinator's calls to
			// it, which the run reports in its failure account.
			_ = cluster.Serve(ln, w)
		}(cluster.NewWorker(i))
	}
	tr, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		release()
		return nil, nil, err
	}
	return tr, release, nil
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
