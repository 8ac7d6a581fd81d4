package collect

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// ClusterConfig parameterizes a scalar collection game distributed over a
// cluster.Transport: the same game as RunSharded with a ShardGen, but each
// shard lives behind a transport boundary (in-process loopback or TCP
// worker processes). Each worker generates its own arrivals from derived
// seed streams (DESIGN.md §7), so a run is a pure function of (master
// seed, worker count), and over the loopback with the same worker count
// the cluster reproduces RunSharded's board record for record. Workers
// only ever see their shard of each round and the resolved threshold; the
// coordinator only ever sees wire-encoded summary deltas and counts.
type ClusterConfig struct {
	Config

	// Transport connects the coordinator to its workers; its worker order
	// is the shard order.
	Transport cluster.Transport

	// Gen is the shard-local data plane, and is required: the configure
	// fan-out ships the honest pool and reference once, and every round
	// directive is an O(1) generator spec (derived seed + counts +
	// injection parameters), so coordinator egress per round is
	// O(workers). The run reproduces RunSharded with the same Gen and
	// worker count record for record.
	Gen *ShardGen

	// SubShards splits each worker's per-round generation into this many
	// independently seeded sub-shards, drawn and summarized on parallel
	// goroutines and folded locally in sub order (wire v6, DESIGN.md §12) —
	// per-core parallelism inside each worker process on top of the
	// per-worker parallelism across the cluster. The subs are cells of the
	// flat derived-seed space; ≤ 1 means one shard per worker. The board is shape-invariant: a W-worker run with C sub-shards
	// reproduces a flat (W·C)-shard RunSharded reference record for record.
	SubShards int

	// Pipeline enables the overlapped round schedule (DESIGN.md §9):
	// round r's classify broadcast carries round r+1's generator specs
	// (wire.OpClassifyGenerate), so workers overlap next-round generation
	// with the current classify and a steady-state round costs one RTT
	// instead of two. The board is unchanged: a pipelined run reproduces
	// the unpipelined run (and hence the RunSharded reference) record for
	// record; membership changes, checkpoints and resume flush the pipeline
	// at the round boundary, so the fleet invariants are preserved.
	Pipeline bool

	// Log receives shard-loss and lifecycle events (typed obs events plus
	// a printf adapter for free-form lines); nil discards them. A worker
	// whose call fails is dropped and the game continues on the survivors —
	// its slice of the round (summaries, counts, kept values) is lost,
	// which shows up as short per-round tallies for that round. Without a
	// Fleet config the drop is forever; with one, re-admission is the
	// supervisor's business.
	Log *obs.Logger

	// Metrics, when non-nil, receives the run's live metrics (phase
	// latency histograms, per-worker timings, egress/loss/round counters —
	// DESIGN.md §11). Purely observational: an instrumented run reproduces
	// a bare run record for record.
	Metrics *obs.Registry

	// Fleet enables the supervision runtime (internal/fleet, DESIGN.md §8):
	// heartbeat liveness over the transport, an epoch-numbered membership
	// view, and — with Fleet.Rejoin — re-admission of lost workers at round
	// boundaries (transport Revive, then the Hello/Configure/Join
	// handshake). Arrivals repartition deterministically over the live slot
	// set, so a run that loses a worker and re-admits it
	// matches the uninterrupted reference record for record from the first
	// round the membership is whole again.
	Fleet *fleet.Config

	// Checkpoint, when non-nil, persists a wire-encoded Snapshot of the
	// full coordinator game state every k rounds (fleet.Checkpointer). The
	// game is a pure function of (master seed, slot count), which is what
	// lets a resumed run reproduce it.
	Checkpoint *fleet.Checkpointer

	// Resume restarts the game from a decoded checkpoint: the board, the
	// game-long Received/Kept streams, loss history and egress counters are
	// restored bit for bit, strategies are replayed over the restored board,
	// and play continues at Snapshot.NextRound. The snapshot's
	// configuration fingerprint must match this config, including the
	// ShardGen master seed the checkpointing run used.
	Resume *wire.Snapshot

	// Elastic admits new worker slots mid-game (DESIGN.md §13): before
	// playing each step's round the transport is grown by Add fresh tail
	// slots, which join through the usual Hello/Configure/Join handshake and
	// serve from that round on. Existing slots keep their ids and therefore
	// their derived seed streams — growth only opens new streams — so a run
	// that grows by k before round 1 reproduces the (W+k)-worker run record
	// for record, and a mid-game grow matches it from the grow round on.
	// Requires a transport implementing cluster.Grower; incompatible with Fleet supervision,
	// checkpointing and resume. Steps must be in strictly ascending round
	// order with Add > 0.
	Elastic []GrowStep
}

// GrowStep is one elastic-fleet growth event: open Add new worker slots
// before playing Round.
type GrowStep struct {
	Round int
	Add   int
}

func (c *ClusterConfig) validate() error {
	if err := validateCluster(c.Transport, c.Gen); err != nil {
		return err
	}
	if c.ExactQuantiles {
		return fmt.Errorf("collect: cluster collection requires summaries (ExactQuantiles must be false)")
	}
	if err := validateScaleKnobs(c.SubShards, c.FocusTighten, c.FocusWidth); err != nil {
		return err
	}
	if c.Resume != nil {
		if err := c.validateResume(); err != nil {
			return err
		}
	}
	if err := c.validateElastic(); err != nil {
		return err
	}
	if _, err := specInjector(c.Adversary); err != nil {
		return err
	}
	return c.Config.validateMode(true)
}

// validateElastic checks the growth schedule against the run modes that can
// host it: a growing slot space has no stable fingerprint for supervision
// epochs or snapshots to pin.
func (c *ClusterConfig) validateElastic() error {
	if len(c.Elastic) == 0 {
		return nil
	}
	if _, ok := c.Transport.(cluster.Grower); !ok {
		return fmt.Errorf("collect: elastic growth requires a transport implementing cluster.Grower")
	}
	if c.Fleet != nil || c.Checkpoint != nil || c.Resume != nil {
		return fmt.Errorf("collect: elastic growth is incompatible with fleet supervision, checkpoint and resume")
	}
	last := 0
	for _, s := range c.Elastic {
		if s.Round < 1 || s.Round > c.Rounds {
			return fmt.Errorf("collect: elastic step at round %d outside the %d-round game", s.Round, c.Rounds)
		}
		if s.Round <= last {
			return fmt.Errorf("collect: elastic steps must be in strictly ascending round order")
		}
		if s.Add <= 0 {
			return fmt.Errorf("collect: elastic step at round %d adds %d workers", s.Round, s.Add)
		}
		last = s.Round
	}
	return nil
}

// validateResume pins the snapshot's configuration fingerprint to this
// config: resuming a different game is an operator error, never a merge.
func (c *ClusterConfig) validateResume() error {
	s := c.Resume
	if s.Game != wire.SnapScalar {
		return fmt.Errorf("collect: snapshot is for game %d, not the scalar cluster game", s.Game)
	}
	if s.Seed != c.Gen.MasterSeed {
		return fmt.Errorf("collect: snapshot master seed %d, config %d", s.Seed, c.Gen.MasterSeed)
	}
	if s.Rounds != c.Rounds || s.Batch != c.Batch {
		return fmt.Errorf("collect: snapshot game %d rounds x batch %d, config %d x %d",
			s.Rounds, s.Batch, c.Rounds, c.Batch)
	}
	if s.Ratio != c.AttackRatio {
		return fmt.Errorf("collect: snapshot attack ratio %v, config %v", s.Ratio, c.AttackRatio)
	}
	if s.Epsilon != c.SummaryEpsilon {
		return fmt.Errorf("collect: snapshot summary epsilon %v, config %v", s.Epsilon, c.SummaryEpsilon)
	}
	if s.Workers != c.Transport.Workers() {
		return fmt.Errorf("collect: snapshot cut over %d worker slots, transport has %d",
			s.Workers, c.Transport.Workers())
	}
	if s.SubShards != c.subShards() {
		return fmt.Errorf("collect: snapshot cut at %d sub-shards per worker, config %d", s.SubShards, c.subShards())
	}
	if ft, fw := focusParams(c.FocusTighten, c.FocusWidth); s.FocusTighten != ft || s.FocusWidth != fw {
		return fmt.Errorf("collect: snapshot focus %d× / ±%v, config %d× / ±%v", s.FocusTighten, s.FocusWidth, ft, fw)
	}
	if s.NextRound > c.Rounds+1 {
		return fmt.Errorf("collect: snapshot next round %d beyond the %d-round game", s.NextRound, c.Rounds)
	}
	if s.Received == nil || s.Kept == nil {
		return fmt.Errorf("collect: snapshot carries no stream state")
	}
	return nil
}

// subShards normalizes the sub-shard knob: 0 and 1 are the same layout.
func (c *ClusterConfig) subShards() int {
	if c.SubShards < 1 {
		return 1
	}
	return c.SubShards
}

// scalarGame adapts the scalar collection game to the round engine: scalar
// arrivals, thresholds on the clean reference scale (or the batch), and a
// kept-value stream.
type scalarGame struct {
	cfg     *ClusterConfig
	res     *Result
	ref     []float64 // sorted clean reference
	genPool []float64 // honest pool the workers draw from
	jscale  float64
}

func (g *scalarGame) confDirective() wire.Directive {
	return wire.Directive{Epsilon: g.cfg.SummaryEpsilon, Pool: g.genPool, RefSorted: g.ref}
}

func (g *scalarGame) preRound(*engine, int) error      { return nil }
func (g *scalarGame) preSpec(*engine, int, bool) error { return nil }
func (g *scalarGame) genOp() wire.Op                   { return wire.OpGenerate }
func (g *scalarGame) jitter() float64                  { return g.jscale }
func (g *scalarGame) decorate(*wire.Directive)         {}
func (g *scalarGame) speculative() bool                { return true }

func (g *scalarGame) specAttach(*engine, int, []*wire.Directive) {}

func (g *scalarGame) foldGen(*wire.Report, arrival.Spec) {}

func (g *scalarGame) threshold(pct float64, merged *summary.Summary) float64 {
	if g.cfg.TrimOnBatch {
		return merged.Query(pct)
	}
	return stats.QuantileSorted(g.ref, pct)
}

func (g *scalarGame) quality(merged *summary.Summary) float64 {
	return ExcessMassQualitySummary(merged, g.ref)
}

// foldClassify absorbs the kept-pool deltas (exact counts/sums ride along,
// so the Kept estimators stay exact). Only workers that answered
// contribute, so a lost shard's values are consistently missing from
// tallies and Kept alike.
func (g *scalarGame) foldClassify(_ *engine, _ int, rec *RoundRecord, rep *wire.Report) error {
	g.res.Kept.AbsorbCounted(rep.Kept, rep.KeptCount, rep.KeptSum)
	return nil
}

func (g *scalarGame) endRound(merged *summary.Summary, count int, sum float64) {
	g.res.Received.AbsorbCounted(merged, count, sum)
}

// RunCluster plays the scalar collection game across a worker cluster. See
// ClusterConfig for the protocol split; per round it is two fan-outs:
// broadcast O(1) generator specs, let each worker draw and summarize its
// own slice, and merge the returned deltas, then broadcast the resolved threshold and
// reduce the returned classification counts and kept-pool deltas. With
// Pipeline the two fan-outs of consecutive rounds overlap (one RTT per
// steady-state round); the board is identical either way.
func RunCluster(cfg ClusterConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()
	ref := sortedCopy(cfg.Reference)

	genPool := cfg.Gen.Pool
	if genPool == nil {
		genPool = cfg.Reference
	}
	si, _ := specInjector(cfg.Adversary) // validated above

	// Baseline quality: the same pre-game draw as RunSharded with a Gen, so
	// the boards stay comparable record for record.
	gen := &arrival.Scalar{Pool: genPool, Ref: ref}
	baseline, _, err := gen.Draw(cfg.Gen.preRand(), arrival.Spec{HonestN: cfg.Batch})
	if err != nil {
		return nil, err
	}
	baselineQ := ExcessMassQuality(baseline, ref)

	roundLen := cfg.Batch + cfg.poisonPerRound()
	res := &Result{}
	if res.Received, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
		return nil, err
	}
	if res.Kept, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
		return nil, err
	}

	pool := newWorkerPool(cfg.Transport, cfg.Log, cfg.Metrics, cfg.Fleet)
	defer pool.stop()

	ft, fw := focusParams(cfg.FocusTighten, cfg.FocusWidth)
	en := &engine{
		game: &scalarGame{
			cfg: &cfg, res: res,
			ref: ref, genPool: genPool, jscale: jitterScale(ref),
		},
		pool:         pool,
		board:        &res.Board,
		collector:    cfg.Collector,
		rounds:       cfg.Rounds,
		batch:        cfg.Batch,
		poison:       cfg.poisonPerRound(),
		baselineQ:    baselineQ,
		gen:          cfg.Gen,
		si:           si,
		subShards:    cfg.subShards(),
		focusTighten: ft,
		focusWidth:   fw,
		pipeline:     cfg.Pipeline,
		onRound:      cfg.OnRound,
		elastic:      cfg.Elastic,
	}
	if cfg.Resume != nil {
		en.resume = func() (int, error) {
			// The baseline re-derived above is the purity check: a snapshot
			// cut from the same (master seed, pool) reproduces it bit for bit.
			if !sameQuality(cfg.Resume.BaselineQ, baselineQ) {
				return 0, fmt.Errorf("collect: snapshot baseline quality %v, recomputed %v (snapshot is from a different game)",
					cfg.Resume.BaselineQ, baselineQ)
			}
			start, err := restoreScalarSnapshot(cfg.Resume, res, pool)
			if err != nil {
				return 0, err
			}
			if err := replayStrategies(cfg.Collector, si, res.Board.Records); err != nil {
				return 0, err
			}
			// Re-anchor the focus schedule: the resumed run's first round
			// anchors on the last posted round's percentile, exactly as the
			// uninterrupted run would have.
			if n := len(res.Board.Records); n > 0 {
				en.lastPct, en.haveLast = res.Board.Records[n-1].ThresholdPct, true
			}
			return start, nil
		}
	}
	if cfg.Checkpoint != nil {
		en.checkpointDue = cfg.Checkpoint.Due
		en.checkpoint = func(r int) error {
			path, err := cfg.Checkpoint.Write(scalarSnapshot(&cfg, res, pool, baselineQ, r))
			if err != nil {
				return err
			}
			pool.log.Checkpoint(r, path)
			pool.met.Counter("trimlab_checkpoints_total").Inc()
			return nil
		}
	}
	if err := en.run(); err != nil {
		return nil, err
	}
	pool.finishStats(&res.ClusterStats)
	return res, nil
}
