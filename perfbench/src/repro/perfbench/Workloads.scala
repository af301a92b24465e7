package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.local.Slugger
import repro.graph.{GraphGen, LocalGraph}

/** One benchmark workload: a Table II stand-in, its scale, and the summarize
  * path (local or Spark) it times.
  *
  * `gen(spark, scale, offset)` is `Datasets`' generator for the stand-in with
  * its seed shifted by `offset`; offset 0 is exactly the `Datasets` graph,
  * which the traced run checks.
  *
  * `warmUpCalls` is how many untimed warm summarize calls the end-to-end
  * run makes before it times any. On the Spark path the three calls after
  * the first still get faster while the JIT compiles Spark's query planner
  * (a count, not a time: a slow stretch of the host slows the JIT too); the
  * local path is steady from the second call.
  */
final case class Workload(name: String, dataset: String, scale: Double, bigT: Int,
                          spark: Boolean, warmUpCalls: Int, gen: (SparkSession, Double, Long) => DataFrame) {
  /** Algorithm seed 42 for every workload; only the inputs follow the run seed. */
  def config: Slugger.Config = Slugger.Config(T = bigT, seed = 42)

  def edges(spark: SparkSession, seedOffset: Long): DataFrame = gen(spark, scale, seedOffset)
}

object Workloads {

  private def s(x: Long, scale: Double): Long = math.max(1L, (x * scale).toLong)

  // Generator knobs and base seeds mirror repro.bench.Datasets (U5, PR).
  val all: Seq[Workload] = Seq(
    Workload("slugger-hyperlink", "U5", 2.0, 20, spark = false, warmUpCalls = 0,
      (sp, sc, off) => GraphGen.bipartiteCores(sp, s(22, sc), 14, 26, s(280, sc), seed = 116 + off)),
    Workload("slugger-spark", "PR", 1.0, 10, spark = true, warmUpCalls = 3,
      (sp, sc, off) => GraphGen.bipartiteCores(sp, s(9, sc), 16, 32, s(120, sc), seed = 103 + off)),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name' (expected one of ${all.map(_.name).mkString(", ")})"))
}

/** The inputs of one run, built after the Spark session and every Spark job
  * of graph generation have finished, so no summarize timing includes them.
  *
  * @param edges canonical edge frame, cached and materialized (Spark path input)
  */
final case class Inputs(spark: SparkSession, g: LocalGraph, edges: DataFrame,
                        setupS: Double, genS: Double, buildS: Double)

object Inputs {

  /** Spark `local[1]`, with one shuffle partition. On a shared 4-vCPU host,
    * warm `local[2]` and `local[4]` calls took no less wall time (their CPU
    * time was about twice their wall time, a third of it JIT compilation),
    * but over ten runs their spread (IQR over median) was 0.18-0.20, against
    * 0.11 with `local[1]`.
    */
  def cores: Int = 1

  private def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  val SetupReps = 5

  /** Set up [[SetupReps]] times: a fresh Spark session, graph generation (a
    * cached, counted edge frame) and `LocalGraph.fromDF`. Reports the median
    * of each part; the first repetition pays class loading and Spark
    * warm-up, so the median is a warm set-up. The last repetition's inputs
    * are kept.
    */
  def build(w: Workload, seed: Long): Inputs = {
    val total = new Array[Double](SetupReps)
    val gen = new Array[Double](SetupReps)
    val build = new Array[Double](SetupReps)
    var last: Inputs = null
    var r = 0
    while (r < SetupReps) {
      if (last != null) { last.edges.unpersist(); last.spark.stop() }
      val t0 = System.nanoTime()
      val spark = session()
      val t1 = System.nanoTime()
      val edges = w.edges(spark, seed).cache()
      edges.count()
      val t2 = System.nanoTime()
      val g = LocalGraph.fromDF(edges)
      val t3 = System.nanoTime()
      total(r) = (t3 - t0) / 1e9; gen(r) = (t2 - t1) / 1e9; build(r) = (t3 - t2) / 1e9
      last = Inputs(spark, g, edges, 0, 0, 0)
      r += 1
    }
    last.copy(setupS = Stats.median(total), genS = Stats.median(gen), buildS = Stats.median(build))
  }
}
