package repro.core.local

import repro.core.model.HierSummary
import repro.graph.LocalGraph
import scala.collection.mutable

/** Summary metrics reported in the paper's tables. */
final case class Metrics(relSize: Double, maxHeight: Int, avgLeafDepth: Double,
                         pCount: Long, nCount: Long, hCount: Long) {
  def cost: Long = pCount + nCount + hCount
}

/** Mutable post-merge representation used by the pruning step: a plain
  * hierarchy forest plus one signed edge set. A position (x, y) carries at
  * most one edge; `inc(x)` lists x's edge partners (x itself for a loop).
  */
final class PruneState(val nSub: Int, val m: Long,
                       val parent: Array[Int], val alive: Array[Boolean],
                       val children: Array[mutable.HashSet[Int]]) {
  val sign = mutable.HashMap.empty[Long, Int]
  val inc: Array[mutable.HashSet[Int]] = Array.fill(parent.length)(mutable.HashSet.empty[Int])

  def pack(x: Int, y: Int): Long =
    if (x <= y) x.toLong << 32 | y.toLong else y.toLong << 32 | x.toLong

  def addEdge(x: Int, y: Int, s: Int): Unit = {
    val k = pack(x, y)
    require(!sign.contains(k), s"duplicate edge position ($x,$y)")
    sign(k) = s
    inc(x) += y; inc(y) += x
  }

  def removeEdge(x: Int, y: Int): Unit = {
    sign.remove(pack(x, y))
    inc(x) -= y; inc(y) -= x
  }

  def hasLoop(x: Int): Boolean = inc(x).contains(x)
  def nonLoopDegree(x: Int): Int = inc(x).size - (if (hasLoop(x)) 1 else 0)

  def topOf(x: Int): Int = { var r = x; while (parent(r) >= 0) r = parent(r); r }

  def hCount: Long = parent.indices.count(x => alive(x) && parent(x) >= 0).toLong

  def metrics: Metrics = {
    var p = 0L; var n = 0L
    sign.valuesIterator.foreach(s => if (s > 0) p += 1 else n += 1)
    val h = hCount
    val depths = (0 until nSub).map { u => var d = 0; var x = u; while (parent(x) >= 0) { d += 1; x = parent(x) }; d }
    val maxH = heights
    Metrics((p + n + h).toDouble / m, maxH, if (nSub == 0) 0 else depths.sum.toDouble / nSub, p, n, h)
  }

  private def heights: Int = {
    def hOf(x: Int): Int = if (children(x).isEmpty) 0 else 1 + children(x).iterator.map(hOf).max
    val roots = parent.indices.filter(x => alive(x) && parent(x) < 0)
    if (roots.isEmpty) 0 else roots.iterator.map(hOf).max
  }

  def toSummary: HierSummary = {
    val pp = mutable.ArrayBuffer.empty[(Int, Int)]
    val pm = mutable.ArrayBuffer.empty[(Int, Int)]
    sign.foreach { case (k, s) =>
      val x = (k >>> 32).toInt; val y = (k & 0xFFFFFFFFL).toInt
      if (s > 0) pp += ((x, y)) else pm += ((x, y))
    }
    HierSummary(nSub, parent.clone(), alive.clone(), pp.toSeq, pm.toSeq)
  }
}

/** SLUGGER's pruning step (paper §III-B4, Algorithm 3): removes supernodes
  * that do not contribute to a succinct encoding, without information loss.
  */
object Pruner {

  def fromState(st: SummaryState): PruneState = {
    val n = st.nSupers
    val parent = Array.tabulate(n)(st.parentOf)
    val children = Array.fill(n)(mutable.HashSet.empty[Int])
    parent.indices.foreach(x => if (parent(x) >= 0) children(parent(x)) += x)
    val ps = new PruneState(st.nSub, st.g.m, parent, Array.fill(n)(true), children)
    st.allEdges.foreach(e => ps.addEdge(e.x, e.y, e.sign))
    ps
  }

  /** Step 1: drop edge-free internal supernodes, splicing children upward. */
  def step1(ps: PruneState): Int = {
    var removed = 0
    var x = 0
    while (x < ps.parent.length) {
      if (ps.alive(x) && ps.children(x).nonEmpty && ps.inc(x).isEmpty) {
        val p = ps.parent(x)
        ps.children(x).foreach { c =>
          ps.parent(c) = p
          if (p >= 0) ps.children(p) += c
        }
        if (p >= 0) ps.children(p) -= x
        ps.children(x).clear()
        ps.alive(x) = false
        removed += 1
      }
      x += 1
    }
    removed
  }

  /** Step 2: drop a root with a single incident non-loop edge by pushing the
    * edge down to its children (flipping against opposite-type edges).
    */
  def step2(ps: PruneState): Int = {
    var removed = 0
    val q = mutable.ArrayDeque.from(ps.parent.indices.filter(x => ps.alive(x) && ps.parent(x) < 0))
    while (q.nonEmpty) {
      val a = q.removeHead()
      if (ps.alive(a) && ps.parent(a) < 0 && ps.children(a).nonEmpty &&
          !ps.hasLoop(a) && ps.inc(a).size == 1) {
        val b = ps.inc(a).head
        val s = ps.sign(ps.pack(a, b))
        ps.removeEdge(a, b)
        val kids = ps.children(a).toArray
        kids.foreach { c =>
          ps.sign.get(ps.pack(c, b)) match {
            case Some(es) =>
              require(es == -s, s"step2: pushing root $a's edge to $b down to child $c " +
                "would double an edge of the same sign")
              ps.removeEdge(c, b)
            case None => ps.addEdge(c, b, s)
          }
        }
        kids.foreach(c => ps.parent(c) = -1)
        ps.children(a).clear()
        ps.alive(a) = false
        removed += 1
        kids.foreach(q.append)
        if (ps.alive(b) && ps.parent(b) < 0) q.append(b)
      }
    }
    removed
  }

  /** Step 3: per adjacent root pair, fall back to the flat (Navlakha-style)
    * encoding — one p-edge plus singleton n-corrections, or plain subedges —
    * whenever it beats the current hierarchical encoding (paper's Step 3).
    */
  def step3(ps: PruneState, g: LocalGraph): Int = {
    val top = Array.tabulate(ps.nSub)(ps.topOf)
    val leavesByTop = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    (0 until ps.nSub).foreach(u => leavesByTop.getOrElseUpdate(top(u), mutable.ArrayBuffer.empty) += u)

    def pairKey(r1: Int, r2: Int): Long = ps.pack(r1, r2)

    // current edge positions grouped by root pair
    val curGroups = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
    ps.sign.keysIterator.foreach { k =>
      val x = (k >>> 32).toInt; val y = (k & 0xFFFFFFFFL).toInt
      curGroups.getOrElseUpdate(pairKey(ps.topOf(x), ps.topOf(y)), mutable.ArrayBuffer.empty) += k
    }
    // ground-truth subedges grouped by root pair
    val subGroups = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Int, Int)]]
    g.edges.foreach { case (u, v) =>
      subGroups.getOrElseUpdate(pairKey(top(u), top(v)), mutable.ArrayBuffer.empty) += ((u, v))
    }

    var changed = 0
    val allKeys = curGroups.keySet ++ subGroups.keySet
    allKeys.foreach { k =>
      val r1 = (k >>> 32).toInt; val r2 = (k & 0xFFFFFFFFL).toInt
      val cur = curGroups.get(k).map(_.length).getOrElse(0)
      val e = subGroups.get(k).map(_.length).getOrElse(0)
      val s1 = leavesByTop.get(r1).map(_.length).getOrElse(0).toLong
      val s2 = leavesByTop.get(r2).map(_.length).getOrElse(0).toLong
      val t = if (r1 == r2) s1 * (s1 - 1) / 2 else s1 * s2
      val flat = if (e == 0) 0L else math.min(e.toLong, 1L + t - e)
      if (flat < cur) {
        curGroups(k).foreach { pos =>
          val x = (pos >>> 32).toInt; val y = (pos & 0xFFFFFFFFL).toInt
          ps.removeEdge(x, y)
        }
        if (e > 0) {
          if (e <= 1L + t - e) {
            subGroups(k).foreach { case (u, v) => ps.addEdge(u, v, +1) }
          } else {
            ps.addEdge(r1, r2, +1)
            val l1 = leavesByTop(r1)
            if (r1 == r2) {
              var i = 0
              while (i < l1.length) {
                var j = i + 1
                while (j < l1.length) {
                  if (!g.hasEdge(l1(i), l1(j))) ps.addEdge(l1(i), l1(j), -1)
                  j += 1
                }
                i += 1
              }
            } else {
              val l2 = leavesByTop(r2)
              l1.foreach(u => l2.foreach(v => if (!g.hasEdge(u, v)) ps.addEdge(u, v, -1)))
            }
          }
        }
        changed += 1
      }
    }
    changed
  }

  /** Run the three substeps, snapshotting metrics after each (Table IV),
    * then repeat silently for `rounds - 1` extra rounds (the paper notes
    * the substeps "can be repeated a few times").
    */
  def prune(ps: PruneState, g: LocalGraph, rounds: Int = 2,
            onSnapshot: (String, Metrics) => Unit = (_, _) => ()): Unit = {
    onSnapshot("0", ps.metrics)
    step1(ps); onSnapshot("1", ps.metrics)
    step2(ps); onSnapshot("2", ps.metrics)
    step3(ps, g); onSnapshot("3", ps.metrics)
    var r = 1
    while (r < rounds) {
      val c = step1(ps) + step2(ps) + step3(ps, g)
      if (c == 0) r = rounds else r += 1
    }
  }
}
