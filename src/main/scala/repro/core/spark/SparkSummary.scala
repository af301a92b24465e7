package repro.core.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.model.HierSummary

/** A summary on Spark: its DataFrame export and DataFrame decompression,
  * which `repro.jobs.RunSluggerDistributed` uses to verify a distributed
  * summary end to end. The model itself (`repro.core.model`) has no Spark.
  */
object SparkSummary {

  /** DataFrame view of a summary: pn(x, y, sign), hier(parent, child), leaves(sup, sub). */
  final case class SummaryFrames(pn: DataFrame, hier: DataFrame, leaves: DataFrame)

  def toFrames(spark: SparkSession, s: HierSummary): SummaryFrames = {
    import spark.implicits._
    val pn = (s.pPlus.map { case (x, y) => (x, y, 1) } ++ s.pMinus.map { case (x, y) => (x, y, -1) })
      .toDF("x", "y", "sign")
    val hier = (0 until s.nSupers)
      .collect { case x if s.alive(x) && s.parent(x) >= 0 => (s.parent(x), x) }
      .toDF("parent", "child")
    val leaves = (0 until s.nSupers)
      .filter(s.alive)
      .flatMap(x => s.leavesOf(x).map(u => (x, u)))
      .toDF("sup", "sub")
    SummaryFrames(pn, hier, leaves)
  }

  /** Spark-side decompression: explode p/n edges through the membership
    * table and keep pairs with positive net count. Exercises the DataFrame
    * path end-to-end (shuffle joins + aggregation).
    */
  def decompressDF(fr: SummaryFrames): DataFrame = {
    val lx = fr.leaves.withColumnRenamed("sup", "x").withColumnRenamed("sub", "u")
    val ly = fr.leaves.withColumnRenamed("sup", "y").withColumnRenamed("sub", "v")
    fr.pn
      .join(lx, "x")
      .join(ly, "y")
      .where(col("u") =!= col("v"))
      .select(least(col("u"), col("v")).as("src"), greatest(col("u"), col("v")).as("dst"),
              col("sign"), col("x"), col("y"))
      // a loop (x == x) enumerates each unordered pair twice; halve its weight
      .withColumn("w", when(col("x") === col("y"), col("sign") * lit(0.5))
                        .otherwise(col("sign").cast("double")))
      .groupBy("src", "dst")
      .agg(sum("w").as("net"))
      .where(col("net") >= 0.5)
      .select(col("src").cast("long"), col("dst").cast("long"))
  }
}
