package repro.core.model

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** The hierarchical graph summarization model \bar{G} = (S, P+, P-, H).
  *
  * Supernode ids: 0..nSub-1 are the singleton leaves (one per subnode of the
  * input graph, in input order); larger ids are merged supernodes. Pruned
  * supernodes are marked dead in `alive` and keep no edges.
  *
  * `parent(x)` is the id of the smallest alive proper superset of x, or -1
  * for roots. H is implicit: one h-edge per alive non-root supernode, so
  * |H| = #alive supers with a parent.
  *
  * p/n-edges are stored canonically with x <= y; (x, x) is a self-loop.
  */
final case class HierSummary(
    nSub: Int,
    parent: Array[Int],
    alive: Array[Boolean],
    pPlus: Seq[(Int, Int)],
    pMinus: Seq[(Int, Int)],
) {
  require(parent.length == alive.length)

  val nSupers: Int = parent.length

  def hEdgeCount: Long =
    (0 until nSupers).count(x => alive(x) && parent(x) >= 0).toLong

  /** Encoding cost, Eq. (1): |P+| + |P-| + |H|. */
  def cost: Long = pPlus.size.toLong + pMinus.size.toLong + hEdgeCount

  lazy val children: Array[List[Int]] = {
    val ch = Array.fill(nSupers)(List.empty[Int])
    var x = 0
    while (x < nSupers) {
      if (alive(x) && parent(x) >= 0) ch(parent(x)) ::= x
      x += 1
    }
    ch
  }

  /** Subnodes contained in supernode x (leaf ids of its subtree). */
  def leavesOf(x: Int): Array[Int] = {
    val out = mutable.ArrayBuffer.empty[Int]
    val stack = mutable.ArrayDeque(x)
    while (stack.nonEmpty) {
      val y = stack.removeLast()
      if (y < nSub) out += y
      children(y).foreach(stack.append)
    }
    out.toArray
  }

  def roots: Seq[Int] = (0 until nSupers).filter(x => alive(x) && parent(x) < 0)

  def depthOf(x: Int): Int = {
    var d = 0; var y = x
    while (parent(y) >= 0) { d += 1; y = parent(y) }
    d
  }

  /** Height of the hierarchy tree rooted at r (0 for a singleton root). */
  def heightOf(r: Int): Int = {
    var h = 0
    val stack = mutable.ArrayDeque((r, 0))
    while (stack.nonEmpty) {
      val (y, d) = stack.removeLast()
      if (d > h) h = d
      children(y).foreach(c => stack.append((c, d + 1)))
    }
    h
  }

  def maxHeight: Int = { val rs = roots; if (rs.isEmpty) 0 else rs.map(heightOf).max }

  /** Average depth of leaf (singleton) supernodes — Table IV/V metric. */
  def avgLeafDepth: Double =
    if (nSub == 0) 0.0 else (0 until nSub).map(depthOf(_).toLong).sum.toDouble / nSub

  /** Relative size of outputs, Eq. (10): cost / |E|. */
  def relativeSize(m: Long): Double = cost.toDouble / m

  // ----------------------------------------------------------------- decode

  /** Net p-minus-n count of every subnode pair that some p/n-edge covers, as
    * ((u, v), net) with u < v. A pair is an edge iff net >= 1; in an exact
    * summary of a simple graph every net is 0 or 1.
    */
  def pairNets: Iterator[((Int, Int), Int)] = {
    val net = mutable.HashMap.empty[Long, Int]
    def key(u: Int, v: Int): Long = if (u < v) u.toLong * nSub + v else v.toLong * nSub + u
    def bump(es: Seq[(Int, Int)], sign: Int): Unit = es.foreach { case (x, y) =>
      val lx = leavesOf(x)
      if (x == y) {
        var i = 0
        while (i < lx.length) {
          var j = i + 1
          while (j < lx.length) { val k = key(lx(i), lx(j)); net(k) = net.getOrElse(k, 0) + sign; j += 1 }
          i += 1
        }
      } else {
        val ly = leavesOf(y)
        lx.foreach(u => ly.foreach { v =>
          if (u != v) { val k = key(u, v); net(k) = net.getOrElse(k, 0) + sign }
        })
      }
    }
    bump(pPlus, +1); bump(pMinus, -1)
    net.iterator.map { case (k, c) => (((k / nSub).toInt, (k % nSub).toInt), c) }
  }

  /** The subnode pairs with net >= 1: the decoded graph's edges. */
  def decompress: Set[(Int, Int)] = pairNets.collect { case (uv, c) if c >= 1 => uv }.toSet

  /** Partial decompression (Algorithm 4): neighbors of one subnode without
    * materializing the rest of the graph. Walks v's root path, applies every
    * incident p/n edge, and keeps subnodes with positive net count.
    */
  def neighbors(v: Int): Set[Int] = {
    // Index edges by endpoint once per summary (lazy, reused across calls).
    val inc = incidentIndex
    val count = mutable.HashMap.empty[Int, Int]
    var x = v
    while (x >= 0) {
      // a loop's other endpoint is x itself
      inc.getOrElse(x, Nil).foreach { case (other, sign, _) =>
        leavesOf(other).foreach { u =>
          if (u != v) count(u) = count.getOrElse(u, 0) + sign
        }
      }
      x = parent(x)
    }
    count.iterator.collect { case (u, c) if c >= 1 => u }.toSet
  }

  /** endpoint -> (other endpoint, sign, isLoop) for every p/n edge. */
  lazy val incidentIndex: Map[Int, List[(Int, Int, Boolean)]] = {
    val b = mutable.HashMap.empty[Int, List[(Int, Int, Boolean)]]
    def add(x: Int, rec: (Int, Int, Boolean)): Unit = b(x) = rec :: b.getOrElse(x, Nil)
    pPlus.foreach { case (x, y) =>
      if (x == y) add(x, (y, +1, true)) else { add(x, (y, +1, false)); add(y, (x, +1, false)) }
    }
    pMinus.foreach { case (x, y) =>
      if (x == y) add(x, (y, -1, true)) else { add(x, (y, -1, false)); add(y, (x, -1, false)) }
    }
    b.toMap
  }

  /** Proportion of p-, n-, and h-edges in the output (Fig. 6). */
  def composition: (Double, Double, Double) = {
    val tot = cost.toDouble
    if (tot == 0) (0.0, 0.0, 0.0)
    else (pPlus.size / tot, pMinus.size / tot, hEdgeCount / tot)
  }

  // ---------------------------------------------------------------- frames

  /** Export as DataFrames for Spark-side decompression and the DuckDB oracle:
    * pn(x, y, sign), hier(parent, child), leaves(sup, sub).
    */
  def toFrames(spark: SparkSession): SummaryFrames = {
    import spark.implicits._
    val pn = (pPlus.map { case (x, y) => (x, y, 1) } ++ pMinus.map { case (x, y) => (x, y, -1) })
      .toDF("x", "y", "sign")
    val hier = (0 until nSupers)
      .collect { case x if alive(x) && parent(x) >= 0 => (parent(x), x) }
      .toDF("parent", "child")
    val leaves = (0 until nSupers)
      .filter(alive)
      .flatMap(x => leavesOf(x).map(u => (x, u)))
      .toDF("sup", "sub")
    SummaryFrames(pn, hier, leaves)
  }
}

/** DataFrame view of a summary (see [[HierSummary.toFrames]]). */
final case class SummaryFrames(pn: DataFrame, hier: DataFrame, leaves: DataFrame)

object HierSummary {

  /** The identity summary of a graph: all-singleton supernodes, one p-edge
    * per input edge — SLUGGER's initialization (Algorithm 1, lines 1-3).
    */
  def identity(n: Int, edges: Iterator[(Int, Int)]): HierSummary =
    HierSummary(n, Array.fill(n)(-1), Array.fill(n)(true), edges.toSeq, Nil)

  /** Spark-side decompression: explode p/n edges through the membership
    * table and keep pairs with positive net count. Exercises the DataFrame
    * path end-to-end (shuffle joins + aggregation).
    */
  def decompressDF(spark: SparkSession, fr: SummaryFrames): DataFrame = {
    import org.apache.spark.sql.functions._
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
