package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.LongType
import repro.core.spark.SparkJobs

/** Compact in-memory view of a simple undirected graph.
  *
  * Node ids are remapped to a dense [0, n) range; `adj` is a CSR-style
  * sorted adjacency array. This is the substrate the SLUGGER merge engine
  * and the baselines operate on. Raw pairs are canonicalized by
  * [[LocalGraph.canonical]] (the generators' routine too); `fromDF`/`toDF`
  * convert the `(src, dst)` frames that the Spark path and benchmark use.
  *
  * @param n     number of nodes (dense ids 0..n-1)
  * @param adj   sorted neighbor arrays, one per node
  * @param ids   original id of each dense node (for round-tripping)
  */
final class LocalGraph(val n: Int, val adj: Array[Array[Int]], val ids: Array[Long]) {
  val m: Long = adj.map(_.length.toLong).sum / 2

  def degree(v: Int): Int = adj(v).length

  def hasEdge(u: Int, v: Int): Boolean =
    java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** All edges as (u, v) with u < v. */
  def edges: Iterator[(Int, Int)] =
    Iterator.range(0, n).flatMap(u => adj(u).iterator.filter(_ > u).map(v => (u, v)))

  def edgeSet: Set[(Int, Int)] = edges.toSet
}

object LocalGraph {

  /** Build from a DataFrame with BIGINT columns `src` and `dst`. The rows
    * come through the frame's own `rdd`, which Spark plans once per frame,
    * so repeated calls on one frame run a job but plan no query.
    */
  def fromDF(edges: DataFrame): LocalGraph = {
    val Seq(s, d) = Seq("src", "dst").map { c =>
      val found = edges.schema.find(_.name == c).map(_.dataType)
      require(found.contains(LongType),
        s"LocalGraph.fromDF needs a BIGINT column $c, found ${found.fold("no such column")(_.sql)}")
      edges.schema.fieldIndex(c)
    }
    val flat = SparkJobs.collect(edges.rdd) { rows =>
      val out = Array.newBuilder[Long]
      rows.foreach { r => out += r.getLong(s); out += r.getLong(d) }
      out.result()
    }
    fromEdges(Seq.tabulate(flat.length / 2)(i => (flat(2 * i), flat(2 * i + 1))))
  }

  /** The simple undirected graph of raw pairs: self-loops dropped, each
    * pair as (smaller id, larger id), duplicates merged.
    */
  def canonical(pairs: IterableOnce[(Long, Long)]): Set[(Long, Long)] =
    pairs.iterator
      .filter { case (a, b) => a != b }
      .map { case (a, b) => if (a < b) (a, b) else (b, a) }
      .toSet

  /** Build from raw (possibly messy) pairs, canonicalized by [[canonical]]. */
  def fromEdges(pairs: Seq[(Long, Long)]): LocalGraph = {
    val clean = canonical(pairs)
    val ids = clean.iterator.flatMap { case (a, b) => Iterator(a, b) }.toArray.distinct.sorted
    val idx = ids.zipWithIndex.toMap
    val n = ids.length
    val deg = new Array[Int](n)
    clean.foreach { case (a, b) => deg(idx(a)) += 1; deg(idx(b)) += 1 }
    val adj = Array.tabulate(n)(i => new Array[Int](deg(i)))
    val fill = new Array[Int](n)
    clean.foreach { case (a, b) =>
      val u = idx(a); val v = idx(b)
      adj(u)(fill(u)) = v; fill(u) += 1
      adj(v)(fill(v)) = u; fill(v) += 1
    }
    adj.foreach(java.util.Arrays.sort)
    new LocalGraph(n, adj, ids)
  }

  /** Lift a LocalGraph back into a canonical Spark edge DataFrame (dense ids). */
  def toDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("src", "dst")
  }
}
