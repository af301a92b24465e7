package repro.core.spark

import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
import repro.core.local.{Slugger, SummaryState}
import repro.graph.LocalGraph
import scala.collection.mutable

/** Distributed SLUGGER.
  *
  * The paper's reference implementation is single-machine; this variant maps
  * one iteration of its Algorithm 1 ([[Slugger.run]], shared with the local
  * mode) onto Spark dataflow:
  *   - candidate generation runs as Catalyst plans over the edge and
  *     membership DataFrames ([[CandidateGenSpark]]),
  *   - the merging step — by far the dominant cost, Lemma 3 — fans out as a
  *     Dataset of [[GroupTask]]s, one per candidate set; each executor runs
  *     the local mode's own Algorithm 2 (`MergeEngine.processGroup`) on a
  *     [[GroupState]] snapshot, which records the merges it commits,
  *   - the resulting merge decisions are replayed into the authoritative
  *     driver-held state (cheap: one commit per accepted merge), keeping the
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
                cfg: Slugger.Config = Slugger.Config()): Slugger.Result = {
    val g = LocalGraph.fromDF(edges)
    val edgesDense = LocalGraph.toDF(spark, g).cache()
    edgesDense.count()

    // Java serialization: kryo's reflective field access trips JPMS module
    // boundaries on JDK 17+ without --add-opens, which spark-submit sets but
    // a plain forked test JVM does not.
    implicit val taskEnc = Encoders.javaSerialization[GroupTask]
    implicit val decEnc = Encoders.javaSerialization[GroupDecisions]
    import spark.implicits._

    val res = Slugger.run(g, cfg) { (st, engine, t) =>
      val rootIds = (0 until g.n).map(st.find)
      val members = (0 until g.n).map(u => (u, rootIds(u))).toDF("sub", "root")
      val assigned = CandidateGenSpark.assign(spark, edgesDense, members,
        cfg.seed + 7919L * t, cfg.maxGroupSize, rootIds.distinct.size.toLong)
        .collect().map(r => (r.getInt(0), r.getLong(1)))
      val byGroup = assigned.groupBy(_._2).view.mapValues(_.map(_._1).toSeq).toMap
        .filter(_._2.lengthCompare(2) >= 0)

      // every task is built before any replay, so all share this temp id base
      val idBase = st.nSupers
      val theta = engine.theta(t, cfg.T)
      val tasks = byGroup.iterator.map { case (key, roots) =>
        buildTask(st, key, roots, theta, cfg.heightBound, cfg.seed * 31 + t)
      }.toSeq

      val decisions = spark.createDataset(tasks)
        .map(GroupState.run _)
        .collect()

      // replay decisions against the authoritative state, mapping the
      // executors' temp ids to the real ids allocated here
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
    edgesDense.unpersist()
    res
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
