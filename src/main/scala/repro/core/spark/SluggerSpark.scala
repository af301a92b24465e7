package repro.core.spark

import org.apache.spark.SparkContext
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
  *   - Merging, the dominant cost (Lemma 3), fans out as one Spark job over
  *     the tasks ([[SparkJobs.collect]]); each executor runs the local
  *     mode's own Algorithm 2 (`MergeEngine.processGroup`) on a
  *     [[GroupState]] decoded from its task, which records the merges it
  *     commits.
  *   - The merge lists are replayed in candidate-set order into the
  *     driver-held state (one commit per accepted merge), which keeps the
  *     encoding globally consistent without cross-group write conflicts.
  *
  * The edge frame is collected once into the driver's `LocalGraph` by
  * `LocalGraph.fromDF`, so a call runs T + 1 jobs. The result is not
  * verified here: `repro.jobs.RunSluggerDistributed` checks it by
  * [[SparkSummary.decompressDF]], and the tests by `decompress`.
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
      replay(st, engine, runTasks(spark.sparkContext, tasks))
    }

  /** One Spark job over one iteration's tasks: each task's merge list
    * ([[GroupState.run]]), in the tasks' order, so replay follows the
    * candidate sets'.
    */
  private[core] def runTasks(sc: SparkContext, tasks: Seq[GroupTask]): Array[Array[Int]] =
    SparkJobs.collect(sc.parallelize(tasks))(_.map(GroupState.run).toArray)

  /** Replay one iteration's merge lists, one per candidate set in order,
    * against the authoritative state, mapping the executors' temp ids to
    * the real ids allocated here. Returns the number of merges committed.
    */
  private[core] def replay(st: SummaryState, engine: MergeEngine,
                           mergeLists: Iterable[Array[Int]]): Long = {
    // every task was built before any replay, so all share this temp id base
    val idBase = st.nSupers
    mergeLists.iterator.zipWithIndex.foreach { case (merges, i) =>
      val tempMap = mutable.HashMap.empty[Int, Int]
      (0 until merges.length / 2).foreach { k =>
        val (a0, b0) = (merges(2 * k), merges(2 * k + 1))
        val a = tempMap.getOrElse(a0, a0)
        val b = tempMap.getOrElse(b0, b0)
        require(a != b && st.isRoot(a) && st.isRoot(b),
          s"candidate set $i, merge $k: ($a0, $b0) -> ($a, $b) does not join two live roots")
        tempMap(idBase + k) = engine.merge(a, b)
      }
    }
    mergeLists.iterator.map(_.length / 2L).sum
  }
}
