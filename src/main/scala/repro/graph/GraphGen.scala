package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on 16 real-world graphs (Table II). Those corpora are
  * not available offline, so each is substituted with one of three synthetic
  * generators whose structure exercises the same code paths: clique unions,
  * complete bipartite cores and scale-free tails, each with near-random
  * noise (see `repro.bench.Datasets`). All generators
  * are pure functions of their arguments: node/edge identities derive from
  * `xxhash64` over row ids, never from `rand()`, so re-runs (and the DuckDB
  * oracle) see identical graphs.
  *
  * Every generator returns a canonical simple undirected edge list:
  * columns `(src BIGINT, dst BIGINT)` with `src < dst`, no duplicates,
  * no self-loops.
  */
object GraphGen {

  /** Canonicalize an arbitrary (src,dst) frame: undirected, simple. */
  def canonical(edges: DataFrame): DataFrame = {
    val e = edges.select(
      least(col("src"), col("dst")).cast("long").as("src"),
      greatest(col("src"), col("dst")).cast("long").as("dst"),
    )
    e.where(col("src") =!= col("dst")).distinct()
  }

  /** Hash-derived pseudo-uniform draw in [0, n) from (i, salt). */
  private def draw(i: org.apache.spark.sql.Column, salt: Long, n: Long) =
    pmod(xxhash64(i, lit(salt)), lit(n))

  /** Erdős–Rényi-ish G(n, m): m hash-sampled pairs (slightly fewer after dedup). */
  def erdosRenyi(spark: SparkSession, n: Long, m: Long, seed: Long = 7): DataFrame = {
    val draws = spark.range(m)
    canonical(draws.select(
      draw(col("id"), seed, n).as("src"),
      draw(col("id"), seed + 1, n).as("dst"),
    ))
  }

  /** Scale-free-ish graph: node u links to ~d earlier nodes with a bias
    * toward low ids (early nodes accumulate degree, like preferential
    * attachment). Stands in for the barely compressible topologies (CA, YO).
    */
  def prefAttach(spark: SparkSession, n: Long, d: Int, seed: Long = 11): DataFrame = {
    val rows = spark.range(1, n).selectExpr(s"id as u", s"explode(sequence(0, ${d - 1})) as j")
    // x in [0,1) ^ 2 biases targets toward 0 => power-law-ish in-degree.
    val x = draw(col("u") * lit(d.toLong) + col("j"), seed, 1000000L).cast("double") / 1000000.0
    canonical(rows.select(
      col("u").as("src"),
      floor(col("u").cast("double") * x * x).cast("long").as("dst"),
    ))
  }

  /** Union of `nCliques` cliques of `cliqueSize` plus `bridges` random edges.
    * Stands in for FA, EM, DB, AM, CN, SK, ES, LJ and HO; the noise share
    * sets how compressible it is.
    */
  def cliqueUnion(spark: SparkSession, nCliques: Long, cliqueSize: Int,
                  bridges: Long, seed: Long = 17): DataFrame = {
    val n = nCliques * cliqueSize
    val members = spark.range(cliqueSize.toLong).toDF("i")
    val pairs = members.as("a").crossJoin(members.withColumnRenamed("i", "j").as("b"))
      .where(col("i") < col("j"))
    val cliques = spark.range(nCliques).toDF("c").crossJoin(pairs).select(
      (col("c") * cliqueSize + col("i")).as("src"),
      (col("c") * cliqueSize + col("j")).as("dst"),
    )
    val extra = spark.range(bridges).select(
      draw(col("id"), seed, n).as("src"),
      draw(col("id"), seed + 1, n).as("dst"),
    )
    canonical(cliques.unionByName(extra))
  }

  /** Union of complete bipartite cores K_{a,b} plus noise. Bipartite cores
    * are the dominant compressible structure of hyperlink graphs: a core
    * costs a*b subedges but only a+b h-edges plus one p-edge in the summary.
    * Stands in for PR and the hyperlink graphs EU, IC, U2 and U5.
    */
  def bipartiteCores(spark: SparkSession, nCores: Long, a: Int, b: Int,
                     noise: Long, seed: Long = 29): DataFrame = {
    val span = (a + b).toLong
    val n = nCores * span
    val hubs = spark.range(a.toLong).toDF("i")
    val leaves = spark.range(a.toLong, span).toDF("j")
    val cores = spark.range(nCores).toDF("c")
      .crossJoin(hubs).crossJoin(leaves)
      .select((col("c") * span + col("i")).as("src"), (col("c") * span + col("j")).as("dst"))
    val extra = spark.range(noise).select(
      draw(col("id"), seed, n).as("src"),
      draw(col("id"), seed + 1, n).as("dst"),
    )
    canonical(cores.unionByName(extra))
  }
}
