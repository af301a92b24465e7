package repro.core.local

import repro.core.model.{FlatModel, HierSummary}
import repro.graph.LocalGraph
import scala.collection.mutable

/** Summary metrics reported in the paper's tables. */
final case class Metrics(relSize: Double, maxHeight: Int, avgLeafDepth: Double,
                         pCount: Long, nCount: Long, hCount: Long) {
  def cost: Long = pCount + nCount + hCount
}

object Metrics {
  /** The metrics of summary s of a graph with m edges. */
  def of(s: HierSummary, m: Long): Metrics = Metrics(
    s.relativeSize(m), s.maxHeight, s.avgLeafDepth, s.pPlus.size.toLong, s.pMinus.size.toLong, s.hEdgeCount)
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

  def pack(x: Int, y: Int): Long = FlatModel.pairKey(x, y)

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

  def topOf(x: Int): Int = { var r = x; while (parent(r) >= 0) r = parent(r); r }

  /** Metrics of the current state (a Table IV snapshot). */
  def metrics: Metrics = Metrics.of(toSummary, m)

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

  /** Step 3: per adjacent root pair, switch to the flat model's encoding
    * of the pair under the grouping "subnode -> its root" (one p-edge plus
    * n-corrections, or plain subedges) whenever it has fewer edges than the
    * current hierarchical encoding (paper's Step 3).
    */
  def step3(ps: PruneState, g: LocalGraph): Int = {
    val (leavesByTop, subGroups) = FlatModel.group(g, Array.tabulate(ps.nSub)(ps.topOf))
    // current edge positions grouped by root pair
    val curGroups = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
    ps.sign.keysIterator.foreach { k =>
      val x = (k >>> 32).toInt; val y = (k & 0xFFFFFFFFL).toInt
      curGroups.getOrElseUpdate(ps.pack(ps.topOf(x), ps.topOf(y)), mutable.ArrayBuffer.empty) += k
    }

    var changed = 0
    (curGroups.keySet ++ subGroups.keySet).foreach { k =>
      val r1 = (k >>> 32).toInt; val r2 = (k & 0xFFFFFFFFL).toInt
      val cur = curGroups.getOrElse(k, mutable.ArrayBuffer.empty[Long])
      val sub = subGroups.getOrElse(k, mutable.ArrayBuffer.empty[(Int, Int)])
      val (l1, l2) = (leavesByTop(r1), leavesByTop(r2))
      if (FlatModel.pairCost(sub.length, l1.length, l2.length, r1 == r2) < cur.length) {
        cur.foreach(pos => ps.removeEdge((pos >>> 32).toInt, (pos & 0xFFFFFFFFL).toInt))
        FlatModel.encodePair(g, r1, l1, r2, l2, sub)(ps.addEdge)
        changed += 1
      }
    }
    changed
  }

  /** Run the three substeps, snapshotting metrics after each (Table IV),
    * then repeat silently for `rounds - 1` extra rounds (the paper notes
    * the substeps "can be repeated a few times").
    */
  def prune(ps: PruneState, g: LocalGraph, rounds: Int,
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
