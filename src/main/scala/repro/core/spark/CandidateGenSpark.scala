package repro.core.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Distributed candidate generation (paper §III-B2) on DataFrames.
  *
  * Min-hash shingles are computed over the closed neighborhood of every
  * subnode with `xxhash64`, lifted to roots through the membership table,
  * and oversized buckets are iteratively re-keyed with the next shingle
  * level (up to 10) and finally split randomly via a window row_number —
  * all as Catalyst plans, no driver-side loops over nodes.
  *
  * It is off [[SluggerSpark]]'s path, which takes the driver's
  * `CandidateGen.groups`; it is kept because perfbench's traced run times
  * one `assign` call as `spark.assign_s`.
  */
object CandidateGenSpark {

  val MaxRefineLevels = 10

  /** @param edges   canonical (src, dst) edge list
    * @param members (sub, root) current membership of every subnode
    * @param nRoots  current number of roots if the caller knows it; when it
    *                already fits one bucket, refinement and random splitting
    *                are provably no-ops and their Spark actions are skipped
    * @return (root, grp) — candidate-set key per root
    */
  def assign(spark: SparkSession, edges: DataFrame, members: DataFrame,
             seed: Long, maxSize: Int = 500, nRoots: Long = Long.MaxValue): DataFrame = {
    val nbrs = edges.select(col("src").as("v"), col("dst").as("u"))
      .unionByName(edges.select(col("dst").as("v"), col("src").as("u")))
      .unionByName(members.select(col("sub").as("v"), col("sub").as("u")))

    val levels = if (nRoots <= maxSize) 1 else MaxRefineLevels

    // f_l(v) = min over closed neighborhood of h_l(u), for all levels at once
    val fCols = (0 until levels).map(l =>
      min(xxhash64(col("u"), lit(seed + l * 1000003L))).as(s"f$l"))
    val fPerSub = nbrs.groupBy("v").agg(fCols.head, fCols.tail: _*)

    // F_l(root) = min over member subnodes
    val rCols = (0 until levels).map(l => min(col(s"f$l")).as(s"F$l"))
    var roots = members.join(fPerSub, members("sub") === fPerSub("v"))
      .groupBy("root").agg(rCols.head, rCols.tail: _*)
      .withColumn("grp", col("F0"))

    if (nRoots <= maxSize)
      return roots.select(col("root").cast("int").as("root"), col("grp"))

    // refine oversized buckets with the next shingle level
    var l = 1
    var oversized = true
    roots = roots.localCheckpoint(true)
    while (l < MaxRefineLevels && oversized) {
      val sizes = roots.groupBy("grp").agg(count(lit(1)).as("sz"))
      oversized = !sizes.where(col("sz") > maxSize).isEmpty
      if (oversized) {
        roots = roots.join(sizes, "grp")
          .withColumn("grp",
            when(col("sz") > maxSize, xxhash64(col("grp"), col(s"F$l"))).otherwise(col("grp")))
          .drop("sz")
          // cut lineage so the loop does not build a 10-deep self-join plan
          .localCheckpoint(true)
      }
      l += 1
    }

    // final random split of still-oversized buckets
    val rn = row_number().over(
      Window.partitionBy("grp").orderBy(xxhash64(col("root"), lit(seed + 777))))
    roots
      .withColumn("slice", ((rn - 1) / maxSize).cast("long"))
      .withColumn("grp", xxhash64(col("grp"), col("slice")))
      .select(col("root").cast("int").as("root"), col("grp"))
  }
}
