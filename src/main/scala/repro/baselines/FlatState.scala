package repro.baselines

import repro.core.model.FlatModel
import repro.graph.LocalGraph
import scala.collection.mutable

/** Mutable supernode grouping with aggregated subedge counts — the working
  * state shared by the flat-model baselines, which finish with
  * [[FlatModel.encode]] of the final grouping.
  */
final class FlatState(val g: LocalGraph) {
  val n: Int = g.n
  private val uf = Array.tabulate(n)(identity)
  val sizeOf = mutable.HashMap.empty[Int, Int]
  /** root -> (neighbor root -> subedge count); self entry = internal count. */
  val cnt = mutable.HashMap.empty[Int, mutable.HashMap[Int, Int]]

  (0 until n).foreach { u => sizeOf(u) = 1; cnt(u) = mutable.HashMap.empty }
  g.edges.foreach { case (u, v) =>
    cnt(u)(v) = 1; cnt(v)(u) = 1
  }

  def find(x: Int): Int = {
    var r = x
    while (uf(r) != r) r = uf(r)
    var c = x
    while (uf(c) != r) { val t = uf(c); uf(c) = r; c = t }
    r
  }

  def roots: Seq[Int] = (0 until n).filter(x => uf(x) == x)

  /** Cost of the optimal flat encoding between roots a and b (Eq. (11) terms). */
  def pairCost(a: Int, b: Int): Long = {
    val e: Int = cnt(a).getOrElse(b, 0)
    FlatModel.pairCost(e, sizeOf(a), sizeOf(b), a == b)
  }

  /** Navlakha cost of a root: pair costs + its share of |H*|. */
  def rootCost(a: Int): Long = {
    var s = if (sizeOf(a) >= 2) sizeOf(a).toLong else 0L
    s += pairCost(a, a)
    cnt(a).keysIterator.foreach(c => if (c != a) s += pairCost(a, c))
    s
  }

  /** Cost of a hypothetical merged root a∪b (no mutation). */
  def mergedCost(a: Int, b: Int): Long = {
    val size = sizeOf(a) + sizeOf(b)
    var s = size.toLong // merged supernode always has >= 2 members
    val eSelf = cnt(a).getOrElse(a, 0) + cnt(b).getOrElse(b, 0) + cnt(a).getOrElse(b, 0)
    s += FlatModel.pairCost(eSelf, size, size, same = true)
    val nbrs = (cnt(a).keysIterator ++ cnt(b).keysIterator).filter(c => c != a && c != b).toSet
    nbrs.foreach { c =>
      s += FlatModel.pairCost(cnt(a).getOrElse(c, 0) + cnt(b).getOrElse(c, 0), size, sizeOf(c), same = false)
    }
    s
  }

  /** Navlakha's merge gain s(u,v) = (cu + cv - cuv) / (cu + cv). */
  def gain(a: Int, b: Int): Double = {
    val ca = rootCost(a); val cb = rootCost(b)
    val shared = pairCost(a, b)
    val before = ca + cb - shared
    if (before <= 0) return Double.NegativeInfinity
    (before - mergedCost(a, b)).toDouble / before
  }

  /** Merge roots a and b; returns the surviving root id. */
  def merge(a: Int, b: Int): Int = {
    val (w, l) = if (cnt(a).size >= cnt(b).size) (a, b) else (b, a)
    uf(l) = w
    val cw = cnt(w); val cl = cnt.remove(l).get
    // fold l's self count and the w-l cross count into w's self count
    val self = cw.getOrElse(w, 0) + cl.getOrElse(l, 0) + cw.getOrElse(l, 0)
    cw.remove(l); cl.remove(w); cl.remove(l)
    if (self > 0) cw(w) = self
    cl.foreach { case (c, k) =>
      cw(c) = cw.getOrElse(c, 0) + k
      val cc = cnt(c)
      cc.remove(l)
      cc(w) = cc.getOrElse(w, 0) + k
    }
    sizeOf(w) = sizeOf(w) + sizeOf.remove(l).get
    w
  }

  def superOf: Array[Int] = Array.tabulate(n)(find)
}
