package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Datasets
import repro.core.local.Slugger
import repro.core.model.HierSummary
import repro.core.spark.SluggerSpark
import repro.graph.LocalGraph

/** Summarize one named dataset with the distributed (Spark dataflow) SLUGGER
  * and verify losslessness end-to-end via DataFrame decompression.
  * Usage: `spark-submit --class repro.jobs.RunSluggerDistributed <name> [T]`.
  * `SPARK_MASTER` and `SPARK_SHUFFLE_PARTITIONS` set the deployment.
  */
object RunSluggerDistributed {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("PR")
    val bigT = args.lift(1).map(_.toInt).getOrElse(20)
    val spark = SparkSession.builder()
      .appName(s"slugger-distributed-$name")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    val edges = Datasets.byName(name).gen(spark, Datasets.defaultScale)
    val g = LocalGraph.fromDF(edges)
    val res = SluggerSpark.summarize(spark, edges, Slugger.Config(T = bigT))
    val frames = res.summary.toFrames(spark)
    val decoded = HierSummary.decompressDF(spark, frames)
    val diff = decoded.exceptAll(LocalGraph.toDF(spark, g))
      .unionByName(LocalGraph.toDF(spark, g).exceptAll(decoded)).count()
    println(s"dataset=$name |E|=${g.m} cost=${res.summary.cost} " +
      s"relSize=${res.summary.relativeSize(g.m)} mergeMs=${res.mergeMillis} " +
      s"pruneMs=${res.pruneMillis} losslessDiff=$diff")
    require(diff == 0, "distributed summary failed lossless verification")
    spark.stop()
  }
}
