package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on 16 real-world graphs (Table II). Those corpora are
  * not available offline, so each is substituted with one of three synthetic
  * generators whose structure exercises the same code paths: clique unions,
  * complete bipartite cores and scale-free tails, each with near-random
  * noise (see `repro.bench.Datasets`). All generators are pure functions of
  * their arguments: node/edge identities derive from Spark's `xxhash64` over
  * row ids, never from a random generator, so re-runs see identical graphs.
  *
  * They are plain loops, but keep their `(SparkSession, ...) => DataFrame`
  * signatures, which the stand-ins (`Datasets.Spec.gen`) and the benchmark's
  * workloads are declared with. Each returns a canonical simple undirected
  * edge list `(src BIGINT, dst BIGINT)`: `src < dst`, no duplicates or loops.
  */
object GraphGen {

  /** Spark's `pmod(xxhash64(i, salt), n)`: a pseudo-uniform draw in [0, n). */
  private def draw(i: Long, salt: Long, n: Long): Long =
    Math.floorMod(XXH64.hashLong(salt, XXH64.hashLong(i, 42)), n)

  /** The pairs, canonicalized, as the `(src BIGINT, dst BIGINT)` frame. */
  private def frame(spark: SparkSession, pairs: Iterator[(Long, Long)]): DataFrame = {
    import spark.implicits._
    LocalGraph.canonical(pairs).toSeq.toDF("src", "dst")
  }

  /** Sizes must be >= 0, and those named in `onto` (the nodes edge draws land on) >= 1 if `draws` > 0. */
  private def check(gen: String, draws: Long, onto: String*)(sizes: (String, Long)*): Unit =
    sizes.foreach { case (arg, v) =>
      val min = if (draws > 0 && onto.contains(arg)) 1 else 0
      require(v >= min, s"GraphGen.$gen: $arg = $v, must be >= $min" + (if (min > 0) s" to draw $draws edges" else ""))
    }

  /** Erdős–Rényi-ish G(n, m): m hash-sampled pairs (slightly fewer after dedup). */
  def erdosRenyi(spark: SparkSession, n: Long, m: Long, seed: Long = 7): DataFrame = {
    check("erdosRenyi", m, "n")("n" -> n, "m" -> m)
    frame(spark, (0L until m).iterator.map(i => (draw(i, seed, n), draw(i, seed + 1, n))))
  }

  /** Scale-free-ish graph: node u links to ~d earlier nodes with a bias
    * toward low ids (early nodes accumulate degree, like preferential
    * attachment). Stands in for the barely compressible topologies (CA, YO).
    */
  def prefAttach(spark: SparkSession, n: Long, d: Int, seed: Long = 11): DataFrame = {
    check("prefAttach", 0)("n" -> n, "d" -> d.toLong)
    frame(spark, for { u <- (1L until n).iterator; j <- Iterator.range(0, d) } yield {
      // x in [0,1) ^ 2 biases targets toward 0 => power-law-ish in-degree.
      val x = draw(u * d + j, seed, 1000000L).toDouble / 1000000.0
      (u, math.floor(u.toDouble * x * x).toLong)
    })
  }

  /** Union of `nCliques` cliques of `cliqueSize` plus `bridges` random edges.
    * Stands in for FA, EM, DB, AM, CN, SK, ES, LJ and HO; the noise share
    * sets how compressible it is.
    */
  def cliqueUnion(spark: SparkSession, nCliques: Long, cliqueSize: Int,
                  bridges: Long, seed: Long = 17): DataFrame = {
    check("cliqueUnion", bridges, "nCliques", "cliqueSize")(
      "nCliques" -> nCliques, "cliqueSize" -> cliqueSize.toLong, "bridges" -> bridges)
    val n = nCliques * cliqueSize
    val cliques = for {
      c <- (0L until nCliques).iterator; i <- Iterator.range(0, cliqueSize); j <- Iterator.range(i + 1, cliqueSize)
    } yield (c * cliqueSize + i, c * cliqueSize + j)
    val extra = (0L until bridges).iterator.map(i => (draw(i, seed, n), draw(i, seed + 1, n)))
    frame(spark, cliques ++ extra)
  }

  /** Union of complete bipartite cores K_{a,b} plus noise. Bipartite cores
    * are the dominant compressible structure of hyperlink graphs: a core
    * costs a*b subedges but only a+b h-edges plus one p-edge in the summary.
    * Stands in for PR and the hyperlink graphs EU, IC, U2 and U5.
    */
  def bipartiteCores(spark: SparkSession, nCores: Long, a: Int, b: Int,
                     noise: Long, seed: Long = 29): DataFrame = {
    check("bipartiteCores", noise, "nCores", "a + b")(
      "nCores" -> nCores, "a" -> a.toLong, "b" -> b.toLong, "a + b" -> (a + b).toLong, "noise" -> noise)
    val span = (a + b).toLong
    val n = nCores * span
    val cores = for {
      c <- (0L until nCores).iterator; i <- Iterator.range(0, a); j <- Iterator.range(a, a + b)
    } yield (c * span + i, c * span + j)
    val extra = (0L until noise).iterator.map(i => (draw(i, seed, n), draw(i, seed + 1, n)))
    frame(spark, cores ++ extra)
  }
}
