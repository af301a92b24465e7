package repro.core.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.local.{CandidateGen, MergeEngine, Slugger, SummaryState}
import repro.graph.LocalGraph
import scala.collection.mutable

/** Distributed SLUGGER: one iteration of Algorithm 1 ([[Slugger.run]],
  * shared with the local mode) on Spark.
  *   - Candidate generation runs on the driver, which holds the graph and
  *     the state: [[tasks]] turns the local mode's `CandidateGen.groups`
  *     sets (an O(|E|) min-hash pass) into one [[GroupTask]] each.
  *   - Merging, the dominant cost (Lemma 3), fans out as one RDD job over
  *     the tasks; each executor runs the local mode's own Algorithm 2
  *     (`MergeEngine.processGroup`) on a [[GroupState]] snapshot, which
  *     records the merges it commits.
  *   - The decisions are replayed in candidate-set order into the
  *     driver-held state (one commit per accepted merge), which keeps the
  *     encoding globally consistent without cross-group write conflicts.
  *
  * The result is not verified here: `repro.jobs.RunSluggerDistributed`
  * checks it by DataFrame decompression (`HierSummary.decompressDF`), and
  * the tests by comparing `decompress` with the input.
  *
  * Candidate sets partition the roots, so decisions from different groups
  * never merge the same root (replay asserts this); replay order only
  * affects which Case-2 rewrite sees which neighbor state first, exactly as
  * in the sequential algorithm.
  */
object SluggerSpark {

  def summarize(spark: SparkSession, edges: DataFrame,
                cfg: Slugger.Config = Slugger.Config()): Slugger.Result =
    Slugger.run(LocalGraph.fromDF(edges), cfg) { (st, engine, t) =>
      // collect keeps the tasks' order, so replay follows the candidate sets'
      replay(st, engine, spark.sparkContext.parallelize(tasks(st, cfg, engine.theta(t, cfg.T), t))
        .map(GroupState.run).collect())
    }

  /** Replay one iteration's decisions, in order, against the authoritative
    * state, mapping the executors' temp ids to the real ids allocated here.
    * Returns the number of merges committed.
    */
  private[core] def replay(st: SummaryState, engine: MergeEngine,
                           decisions: Iterable[GroupDecisions]): Long = {
    // every task was built before any replay, so all share this temp id base
    val idBase = st.nSupers
    decisions.foreach { d =>
      val tempMap = mutable.HashMap.empty[Int, Int]
      d.merges.iterator.zipWithIndex.foreach { case ((a0, b0), k) =>
        val a = tempMap.getOrElse(a0, a0)
        val b = tempMap.getOrElse(b0, b0)
        require(a != b && st.isRoot(a) && st.isRoot(b),
          s"group ${d.groupKey}, merge $k: ($a0, $b0) -> ($a, $b) does not join two live roots")
        tempMap(idBase + k) = engine.merge(a, b)
      }
    }
    decisions.iterator.map(_.merges.length.toLong).sum
  }

  /** Iteration t's tasks: one per candidate set of `CandidateGen.groups`,
    * in its order, keyed by the set's index.
    */
  private[core] def tasks(st: SummaryState, cfg: Slugger.Config, theta: Double,
                          t: Int): Seq[GroupTask] =
    CandidateGen.groups(st, cfg.seed + 7919L * t, cfg.maxGroupSize).zipWithIndex.map {
      case (roots, k) => buildTask(st, k.toLong, roots, theta, cfg.heightBound, cfg.seed * 31 + t)
    }

  /** Snapshot everything one candidate set needs (see [[GroupTask]]). */
  private[core] def buildTask(st: SummaryState, key: Long, rootIds: Seq[Int],
                              theta: Double, heightBound: Int, rngSeed: Long): GroupTask = {
    val live = rootIds.map(st.find).distinct.filter(st.isRoot)
    val inGroup = live.toSet
    val roots = live.map { r =>
      RootInfo(r, st.famSize(r), st.heightOf(r), st.childrenOf(r), st.internal(r).toSeq)
    }
    val pairEncs = mutable.ArrayBuffer.empty[(Int, Int, Seq[repro.core.encode.Enc])]
    val nbrChildren = mutable.HashMap.empty[Int, Seq[Int]]
    live.foreach { a =>
      st.pairs(a).foreach { case (c, buf) =>
        // take in-group pairs once (from the smaller id), foreign pairs always
        if (!inGroup.contains(c) || a < c) pairEncs += ((a, c, buf.toSeq))
        if (!inGroup.contains(c)) nbrChildren.getOrElseUpdate(c, st.childrenOf(c))
      }
    }
    GroupTask(key, st.nSub, st.nSupers, roots, nbrChildren.toMap,
              pairEncs.toSeq, theta, heightBound, rngSeed)
  }
}
