package repro.core.local

import repro.core.model.HierSummary
import repro.graph.LocalGraph
import scala.util.Random

/** SLUGGER (Algorithm 1): scalable lossless hierarchical graph summarization.
  *
  * Initializes the summary to the input graph, then alternates candidate
  * generation and greedy merging for T iterations, and finally prunes
  * supernodes that do not contribute to a succinct encoding.
  */
object Slugger {

  /** @param T            candidate-generation + merging iterations (at least 1)
    * @param seed         RNG seed (shingles, processing order)
    * @param maxGroupSize candidate-set size cap (paper: 500); at least 2,
    *                     the smallest set within which a merge can happen
    * @param heightBound  H_b variant of Table V (at least 1; Int.MaxValue = unbounded)
    */
  final case class Config(T: Int = 20, seed: Long = 42, maxGroupSize: Int = 500,
                          heightBound: Int = Int.MaxValue) {
    require(T >= 1, s"Slugger.Config.T must be at least 1, got $T")
    require(heightBound >= 1, s"Slugger.Config.heightBound must be at least 1, got $heightBound")
    require(maxGroupSize >= 2, s"Slugger.Config.maxGroupSize must be at least 2, got $maxGroupSize")

    /** Pruning rounds: the measured first pass plus up to one silent round. */
    def pruneRounds: Int = 2
  }

  /** @param summary     final pruned model
    * @param snapshots   Table IV states: metrics after pruning substeps 0..3
    * @param mergeMillis merge-phase wall time
    * @param pruneMillis prune-phase wall time
    */
  final case class Result(summary: HierSummary, snapshots: Seq[(String, Metrics)],
                          mergeMillis: Long, pruneMillis: Long, totalMerges: Long)

  def summarize(g: LocalGraph, cfg: Config = Config()): Result = run(g, cfg) { (st, engine, t) =>
    val groups = CandidateGen.groups(st, cfg.seed + 7919L * t, cfg.maxGroupSize)
    val th = engine.theta(t, cfg.T)
    val rng = new Random(cfg.seed * 31 + t)
    groups.foldLeft(0L)((merges, d) => merges + engine.processGroup(d, th, rng, cfg.heightBound))
  }

  /** Algorithm 1's skeleton: initialize the state, run `iteration(st, engine,
    * t)` for t = 1..T (it returns the number of merges it committed), then
    * prune. [[summarize]] and [[repro.core.spark.SluggerSpark]] differ only
    * in how one iteration finds its candidate sets and merges within them.
    */
  private[core] def run(g: LocalGraph, cfg: Config)
                       (iteration: (SummaryState, MergeEngine, Int) => Long): Result = {
    val st = new SummaryState(g)
    val engine = new MergeEngine(st)
    val t0 = System.nanoTime()
    var merges = 0L
    var t = 1
    while (t <= cfg.T) {
      merges += iteration(st, engine, t)
      t += 1
    }
    val t1 = System.nanoTime()
    val ps = Pruner.fromState(st)
    val snaps = scala.collection.mutable.ArrayBuffer.empty[(String, Metrics)]
    Pruner.prune(ps, g, cfg.pruneRounds, (label, met) => snaps += ((label, met)))
    val t2 = System.nanoTime()
    Result(ps.toSummary, snaps.toSeq, (t1 - t0) / 1000000, (t2 - t1) / 1000000, merges)
  }
}
