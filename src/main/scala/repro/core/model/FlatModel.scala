package repro.core.model

import repro.graph.LocalGraph
import scala.collection.mutable

/** The previous (flat) graph summarization model of Navlakha et al. (§II-A):
  * disjoint supernodes, P edges between supernodes, C+/C- corrections
  * between subnodes.
  *
  * [[encodePair]] is the optimal encoding of one supernode pair. The
  * baselines finish with [[encode]], which applies it to every pair of a
  * grouping and lifts the result into a [[HierSummary]] with height-1 trees,
  * so that cost and metrics are measured uniformly via Eq. (11):
  * |P| + |C+| + |C-| + |H*| where |H*| = Σ_{|A|>=2} |A|. SLUGGER's pruning
  * Step 3 (§III-B4) applies [[encodePair]] to root pairs where it is cheaper.
  */
object FlatModel {

  /** Cost of the optimal flat encoding of e subedges between two groups of
    * s1 and s2 subnodes (`same`: within one group of s1): e plain subedges,
    * or one p-edge plus the T - e missing of its T subnode pairs as
    * n-corrections, whichever is smaller.
    */
  def pairCost(e: Long, s1: Long, s2: Long, same: Boolean): Long =
    if (e == 0) 0L else math.min(e, 1L + (if (same) s1 * (s1 - 1) / 2 else s1 * s2) - e)

  /** Emit the optimal flat encoding of the group pair (sa, sb) with
    * subnodes la and lb (sa == sb: one group) as `emit(x, y, sign)`: the
    * given subedges as p-edges, or, when that has fewer edges, p-edge
    * (sa, sb) followed by one n-edge per missing subnode pair in la × lb
    * order.
    */
  def encodePair(g: LocalGraph, sa: Int, la: collection.IndexedSeq[Int], sb: Int,
                 lb: collection.IndexedSeq[Int], subedges: Iterable[(Int, Int)])
                (emit: (Int, Int, Int) => Unit): Unit = {
    val e = subedges.size.toLong
    if (pairCost(e, la.length, lb.length, sa == sb) == e)
      subedges.foreach { case (u, v) => emit(u, v, +1) }
    else {
      emit(sa, sb, +1)
      var i = 0
      while (i < la.length) {
        var j = if (sa == sb) i + 1 else 0
        while (j < lb.length) {
          if (!g.hasEdge(la(i), lb(j))) emit(la(i), lb(j), -1)
          j += 1
        }
        i += 1
      }
    }
  }

  /** Group pair key, smaller group first. */
  def pairKey(a: Int, b: Int): Long = if (a <= b) a.toLong << 32 | b.toLong else b.toLong << 32 | a.toLong

  /** The grouping `groupOf` (subnode -> group) of g's subnodes: each group's
    * members in ascending order, and g's edges by group pair ([[pairKey]])
    * in `g.edges` order.
    */
  def group(g: LocalGraph, groupOf: Array[Int])
      : (mutable.HashMap[Int, mutable.ArrayBuffer[Int]], mutable.HashMap[Long, mutable.ArrayBuffer[(Int, Int)]]) = {
    val members = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    (0 until g.n).foreach(u => members.getOrElseUpdate(groupOf(u), mutable.ArrayBuffer.empty) += u)
    val subedges = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Int, Int)]]
    g.edges.foreach { case (u, v) =>
      subedges.getOrElseUpdate(pairKey(groupOf(u), groupOf(v)), mutable.ArrayBuffer.empty) += ((u, v))
    }
    (members, subedges)
  }

  /** Optimal flat encoding of the grouping `superOf` (subnode -> group). */
  def encode(g: LocalGraph, superOf: Array[Int]): HierSummary = {
    val n = g.n
    val (members, subedges) = group(g, superOf)
    val groupIds = members.keys.toArray.sorted
    // super id layout in the HierSummary: singletons keep their subnode id;
    // each group with >= 2 members gets a fresh id.
    val parent = mutable.ArrayBuffer.tabulate(n)(_ => -1)
    val supIdOf = mutable.HashMap.empty[Int, Int] // group -> summary super id
    groupIds.foreach { gid =>
      val ms = members(gid)
      if (ms.length == 1) supIdOf(gid) = ms.head
      else {
        val sid = parent.length
        parent += -1
        ms.foreach(u => parent(u) = sid)
        supIdOf(gid) = sid
      }
    }
    val pp = mutable.ArrayBuffer.empty[(Int, Int)]
    val pm = mutable.ArrayBuffer.empty[(Int, Int)]
    subedges.foreach { case (k, es) =>
      val ga = (k >>> 32).toInt; val gb = (k & 0xFFFFFFFFL).toInt
      encodePair(g, supIdOf(ga), members(ga), supIdOf(gb), members(gb), es) { (x, y, s) =>
        (if (s > 0) pp else pm) += ((math.min(x, y), math.max(x, y)))
      }
    }
    HierSummary(n, parent.toArray, Array.fill(parent.length)(true), pp.toSeq, pm.toSeq)
  }
}
