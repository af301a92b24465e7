package repro.core.model

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

  /** Subnodes contained in supernode x (leaf ids of its subtree), in
    * hierarchy DFS order; empty for a dead supernode.
    */
  def leavesOf(x: Int): Array[Int] = {
    val ix = readIndex
    java.util.Arrays.copyOfRange(ix.order, ix.lo(x), ix.hi(x))
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

  /** Partial decompression (Algorithm 4): the neighbors of subnode v,
    * without materializing the rest of the graph, in ascending order (a
    * fresh array the caller owns).
    *
    * Walks v's root path and turns every incident p/n-edge into a +-sign
    * pair of events at the ends of its far endpoint's leaf interval (a loop
    * at x: x's own interval). One sort and one sweep over those events give
    * every leaf whose running net is >= 1, v itself excepted.
    */
  def neighborArray(v: Int): Array[Int] = {
    require(0 <= v && v < nSub, s"neighbors($v): not a subnode, ids run from 0 until nSub = $nSub")
    val ix = readIndex
    import ix.{hi, lo, order}
    var k = 0
    var x = v
    while (x >= 0) { k += ix.start(x + 1) - ix.start(x); x = parent(x) }
    // event = position << 1 | (1 for +1, 0 for -1)
    val ev = new Array[Long](2 * k)
    var e = 0
    x = v
    while (x >= 0) {
      var i = ix.start(x)
      while (i < ix.start(x + 1)) {
        val y = ix.other(i)
        val up = if (ix.sign(i) > 0) 1L else 0L
        ev(e) = lo(y).toLong << 1 | up
        ev(e + 1) = hi(y).toLong << 1 | (1L - up)
        e += 2
        i += 1
      }
      x = parent(x)
    }
    java.util.Arrays.sort(ev)
    val at = lo(v)
    // Leaves at positions [p, q) share one net; the first pass counts them,
    // the second fills the exactly sized answer.
    def sweep(out: Array[Int]): Int = {
      var n = 0
      var net = 0
      var i = 0
      while (i < e) {
        val p = (ev(i) >>> 1).toInt
        while (i < e && (ev(i) >>> 1).toInt == p) { net += ((ev(i) & 1L).toInt << 1) - 1; i += 1 }
        if (net >= 1 && i < e) {
          val q = (ev(i) >>> 1).toInt
          if (out == null) n += q - p - (if (p <= at && at < q) 1 else 0)
          else {
            var j = p
            while (j < q) { if (j != at) { out(n) = order(j); n += 1 }; j += 1 }
          }
        }
      }
      n
    }
    val out = new Array[Int](sweep(null))
    sweep(out)
    java.util.Arrays.sort(out)
    out
  }

  /** [[neighborArray]] as an immutable set: ascending iteration, `contains`
    * by binary search.
    */
  def neighbors(v: Int): Set[Int] = SortedIntSet.wrap(neighborArray(v))

  /** The read index behind [[leavesOf]] and [[neighborArray]]; built on the
    * first query, never by summarization.
    */
  private lazy val readIndex: ReadIndex = ReadIndex(this)

  /** endpoint -> (other endpoint, sign, isLoop) for every p/n edge: a map
    * view of [[readIndex]]'s incidence, which queries read directly. It is
    * kept for perfbench's leaf-visit count and index timing.
    */
  lazy val incidentIndex: Map[Int, List[(Int, Int, Boolean)]] = {
    val ix = readIndex
    (0 until nSupers).iterator.filter(x => ix.start(x) < ix.start(x + 1)).map { x =>
      x -> List.range(ix.start(x), ix.start(x + 1)).map(i => (ix.other(i), ix.sign(i), ix.other(i) == x))
    }.toMap
  }

  /** Proportion of p-, n-, and h-edges in the output (Fig. 6). */
  def composition: (Double, Double, Double) = {
    val tot = cost.toDouble
    if (tot == 0) (0.0, 0.0, 0.0)
    else (pPlus.size / tot, pMinus.size / tot, hEdgeCount / tot)
  }
}

/** The read index of a summary.
  *
  * `order` lists the leaves in hierarchy DFS order, so the leaves of alive
  * supernode x are `order[lo(x), hi(x))`; a dead supernode's interval is
  * empty. `start`/`other`/`sign` is the CSR incidence of the p/n-edges by
  * endpoint: the edges at x are (`other(i)`, `sign(i)`) for i in
  * [start(x), start(x + 1)); a loop at x is stored once, with other end x.
  */
private[model] final class ReadIndex(
    val order: Array[Int], val lo: Array[Int], val hi: Array[Int],
    val start: Array[Int], val other: Array[Int], val sign: Array[Int])

private[model] object ReadIndex {

  def apply(s: HierSummary): ReadIndex = {
    val n = s.nSupers
    val order = new Array[Int](s.nSub)
    val lo = new Array[Int](n)
    val hi = new Array[Int](n)
    // an explicit stack keeps deep hierarchies off the JVM call stack;
    // ~x marks the end of x's subtree
    val stack = new Array[Int](2 * n)
    var top = 0
    var pos = 0
    s.roots.foreach { r =>
      stack(top) = r; top += 1
      while (top > 0) {
        top -= 1
        val x = stack(top)
        if (x < 0) hi(~x) = pos
        else {
          lo(x) = pos
          if (x < s.nSub) { order(pos) = x; pos += 1 }
          stack(top) = ~x; top += 1
          s.children(x).foreach { c => stack(top) = c; top += 1 }
        }
      }
    }

    // each p/n-edge end as (endpoint, other end, sign); a loop has one end
    def eachEnd(f: (Int, Int, Int) => Unit): Unit = {
      def side(es: Seq[(Int, Int)], sg: Int): Unit =
        es.foreach { case (x, y) => f(x, y, sg); if (x != y) f(y, x, sg) }
      side(s.pPlus, 1); side(s.pMinus, -1)
    }
    val start = new Array[Int](n + 1)
    eachEnd((x, _, _) => start(x + 1) += 1)
    var x = 0
    while (x < n) { start(x + 1) += start(x); x += 1 }
    val other = new Array[Int](start(n))
    val sign = new Array[Int](start(n))
    val next = start.clone()
    eachEnd { (x, y, sg) => other(next(x)) = y; sign(next(x)) = sg; next(x) += 1 }
    new ReadIndex(order, lo, hi, start, other, sign)
  }
}

object HierSummary {

  /** The identity summary of a graph: all-singleton supernodes, one p-edge
    * per input edge — SLUGGER's initialization (Algorithm 1, lines 1-3).
    */
  def identity(n: Int, edges: Iterator[(Int, Int)]): HierSummary =
    HierSummary(n, Array.fill(n)(-1), Array.fill(n)(true), edges.toSeq, Nil)
}
