package repro.core.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.local.{MergeEngine, Slugger, SummaryState}
import repro.graph.LocalGraph
import scala.collection.mutable

/** Distributed SLUGGER: Algorithm 1 ([[Slugger.run]], shared with the
  * local mode) with each iteration's merging step on Spark.
  *   - Candidate generation runs on the driver, which holds the graph and
  *     the state: [[MergeEngine.mergePhase]] hands over the local mode's
  *     `CandidateGen` sets (an O(|E|) min-hash pass), and
  *     [[GroupTask.of]] turns each into one task.
  *   - Merging, the dominant cost (Lemma 3), fans out as one RDD job over
  *     the tasks; each executor runs the local mode's own Algorithm 2
  *     (`MergeEngine.processGroup`) on a [[GroupState]] snapshot, which
  *     records the merges it commits.
  *   - The merge lists are replayed in candidate-set order into the
  *     driver-held state (one commit per accepted merge), which keeps the
  *     encoding globally consistent without cross-group write conflicts.
  *
  * The edge frame is collected once into the driver's `LocalGraph`. The
  * result is not verified here: `repro.jobs.RunSluggerDistributed` checks
  * it by [[SparkSummary.decompressDF]], and the tests by `decompress`.
  *
  * Candidate sets partition the roots, so decisions from different groups
  * never merge the same root (replay asserts this); replay order only
  * affects which Case-2 rewrite sees which neighbor state first, exactly as
  * in the sequential algorithm.
  */
object SluggerSpark {

  def summarize(spark: SparkSession, edges: DataFrame,
                cfg: Slugger.Config = Slugger.Config()): Slugger.Result =
    Slugger.run(LocalGraph.fromDF(edges), cfg) { (st, engine, sets, th, rngSeed) =>
      val tasks = sets.map(GroupTask.of(st, _, th, cfg.heightBound, rngSeed))
      // collect keeps the tasks' order, so replay follows the candidate sets'
      replay(st, engine, spark.sparkContext.parallelize(tasks).map(GroupState.run).collect())
    }

  /** Replay one iteration's merge lists, one per candidate set in order,
    * against the authoritative state, mapping the executors' temp ids to
    * the real ids allocated here. Returns the number of merges committed.
    */
  private[core] def replay(st: SummaryState, engine: MergeEngine,
                           mergeLists: Iterable[Seq[(Int, Int)]]): Long = {
    // every task was built before any replay, so all share this temp id base
    val idBase = st.nSupers
    mergeLists.iterator.zipWithIndex.foreach { case (merges, i) =>
      val tempMap = mutable.HashMap.empty[Int, Int]
      merges.iterator.zipWithIndex.foreach { case ((a0, b0), k) =>
        val a = tempMap.getOrElse(a0, a0)
        val b = tempMap.getOrElse(b0, b0)
        require(a != b && st.isRoot(a) && st.isRoot(b),
          s"candidate set $i, merge $k: ($a0, $b0) -> ($a, $b) does not join two live roots")
        tempMap(idBase + k) = engine.merge(a, b)
      }
    }
    mergeLists.iterator.map(_.length.toLong).sum
  }
}
