package repro.core.local

import repro.core.encode.{Enc, MinCover, Panel}
import scala.collection.mutable
import scala.util.Random

/** Greedy merging with simultaneous encoding updates (paper §III-B3).
  *
  * For a (tentative or committed) merger of roots A and B the engine
  *  - rewrites p/n-edges inside the merged family's top panel (Case 1),
  *  - rewrites p/n-edges between that panel and every neighbor root's
  *    1-level family (Case 2),
  * picking, per panel, a minimum-size valid encoding through the memoized
  * [[MinCover]] search. Edges below the panels are kept fixed.
  */
final class MergeEngine(val st: MergeSubstrate) {
  import MergeEngine.Rewrite

  private def canon(x: Int, y: Int, sign: Int): Enc =
    if (x <= y) Enc(x, y, sign) else Enc(y, x, sign)

  private def solvePanel(panel: Panel, edges: Iterator[Enc]): Rewrite = {
    val netBySlot = new Array[Int](panel.slots.length)
    val old = mutable.ListBuffer.empty[Enc]
    var clean = true
    edges.foreach { e =>
      val sx = panel.symOf(e.x); val sy = panel.symOf(e.y)
      if (sx >= 0 && sy >= 0) {
        val s = panel.slotOf(sx, sy)
        if (s < 0) clean = false // position not a legal slot: keep panel fixed
        else { old += e; netBySlot(s) += e.sign }
      } // else: deep edge, stays fixed and off the targets by construction
    }
    if (netBySlot.exists(n => n > 1 || n < -1)) clean = false
    if (!clean || old.isEmpty)
      return Rewrite(panel, old.toList, MinCover.Solution(old.size, Nil), keepOld = true)
    val targets = new Array[Int](panel.nCons)
    val reproduce = mutable.ListBuffer.empty[(Int, Int)]
    var s = 0
    while (s < netBySlot.length) {
      val net = netBySlot(s)
      if (net != 0) {
        reproduce += ((s, net))
        val cov = panel.slotCovers(s)
        var c = 0
        while (c < panel.nCons) { if ((cov >> c & 1L) == 1L) targets(c) += net; c += 1 }
      }
      s += 1
    }
    val sol = MinCover.solve(panel.shape, panel.slotCovers, targets, reproduce.toList)
    Rewrite(panel, old.toList, sol, keepOld = false)
  }

  private def picksToEdges(panel: Panel, picks: List[(Int, Int)]): List[Enc] =
    picks.map { case (s, sign) =>
      val (sx, sy) = panel.slots(s)
      canon(panel.symIds(sx), panel.symIds(sy), sign)
    }

  // ------------------------------------------------------------- evaluation

  /** Can merging these two roots possibly pay off? Roots at distance >= 3
    * never do (Lemma 1): they must be adjacent or share a neighbor root.
    */
  def closeEnough(a: Int, b: Int): Boolean = {
    val ca = st.subCnt(a); val cb = st.subCnt(b)
    if (ca.contains(b)) return true
    val (small, other) = if (ca.size <= cb.size) (ca, cb) else (cb, ca)
    small.keysIterator.exists(other.contains)
  }

  /** Cost of the merged root Cost_{A∪B}(Ĝ): Eq. (6) after the tentative
    * merger, via Case 1 + Case 2 rewrites (no mutation).
    */
  def afterCost(a: Int, b: Int): Long = afterCostDetailed(a, b)._1

  /** (cost after merger, pruning credit).
    *
    * The credit anticipates pruning Step 1: if the rewrites leave the old
    * root A (resp. B) with no incident p/n-edge, the final pruning will
    * splice it out and reclaim one h-edge. Without this, ties that the flat
    * model wins outright (e.g. absorbing the last member of a clique) are
    * rejected by the transient +2 h-edge tax of Eq. (15) and SLUGGER is
    * systematically out-compressed by SWEG on clique-dominated graphs.
    */
  private def afterCostDetailed(a: Int, b: Int): (Long, Long) = {
    val chA = st.childrenOf(a); val chB = st.childrenOf(b)
    val hAfter = (st.famSize(a) - 1L) + (st.famSize(b) - 1L) + 2L
    val crossBuf = st.pairs(a).get(b)
    val crossSize = crossBuf.map(_.length).getOrElse(0)

    var incA = 0L; var incB = 0L // surviving edges incident to A / B themselves
    def touches(e: Enc): Unit = {
      if (e.x == a || e.y == a) incA += 1
      if (e.x == b || e.y == b) incB += 1
    }
    def survey(r: Rewrite, inputs: Iterator[Enc]): Unit = {
      if (r.keepOld) inputs.foreach(touches)
      else {
        val removed = r.oldPanel.toSet
        inputs.filterNot(removed).foreach(touches)
        picksToEdges(r.panel, r.solution.picks).foreach(touches)
      }
    }

    val p1 = Panel.internal(chA, chB, a, b, -1, st.isLeafSuper)
    val intIter = st.internal(a).iterator ++ st.internal(b).iterator ++
      crossBuf.iterator.flatten
    val r1 = solvePanel(p1, intIter)
    survey(r1, st.internal(a).iterator ++ st.internal(b).iterator ++ crossBuf.iterator.flatten)
    val intTotal = st.internal(a).length + st.internal(b).length + crossSize
    var pAfter = (intTotal - r1.oldPanel.size + r1.newCost).toLong
    val nbrs = (st.pairs(a).keysIterator ++ st.pairs(b).keysIterator)
      .filter(c => c != a && c != b).toSet
    nbrs.foreach { c =>
      val bufA = st.pairs(a).get(c)
      val bufB = st.pairs(b).get(c)
      val total = bufA.map(_.length).getOrElse(0) + bufB.map(_.length).getOrElse(0)
      val p2 = Panel.cross(chA, chB, a, b, -1, c, st.childrenOf(c))
      val r2 = solvePanel(p2, bufA.iterator.flatten ++ bufB.iterator.flatten)
      survey(r2, bufA.iterator.flatten ++ bufB.iterator.flatten)
      pAfter += total - r2.oldPanel.size + r2.newCost
    }
    var credit = 0L
    if (chA.nonEmpty && incA == 0) credit += 1
    if (chB.nonEmpty && incB == 0) credit += 1
    (hAfter + pAfter, credit)
  }

  /** Saving(A, B, Ḡ) — Eq. (8): 1 - cost(after) / cost(before), with the
    * cost after the merger reduced by the anticipated pruning credit.
    */
  def saving(a: Int, b: Int): Double = {
    val crossSize = st.pairs(a).get(b).map(_.length).getOrElse(0)
    val before = st.rootCost(a).toLong + st.rootCost(b).toLong - crossSize
    if (before <= 0) return Double.NegativeInfinity
    val (after, credit) = afterCostDetailed(a, b)
    1.0 - (after - credit).toDouble / before
  }

  // ----------------------------------------------------------------- commit

  /** Merge roots a and b, rewrite encodings, return the new root id. */
  def merge(a: Int, b: Int): Int = {
    require(st.isRoot(a) && st.isRoot(b) && a != b, s"merge($a,$b): not distinct roots")
    val chA = st.childrenOf(a); val chB = st.childrenOf(b)

    // detach the cross pair before allocating M
    val crossBuf = st.pairs(a).remove(b) match {
      case Some(buf) => st.pairs(b).remove(a); buf
      case None      => mutable.ArrayBuffer.empty[Enc]
    }
    val m = st.newSuper(a, b)

    // ---- Case 1: internal panel
    val p1 = Panel.internal(chA, chB, a, b, m, st.isLeafSuper)
    val r1 = solvePanel(p1, st.internal(a).iterator ++ st.internal(b).iterator ++ crossBuf.iterator)
    val newInternal = mutable.ArrayBuffer.empty[Enc]
    if (r1.keepOld) {
      newInternal ++= st.internal(a) ++= st.internal(b) ++= crossBuf
    } else {
      val removed = r1.oldPanel.toSet
      (st.internal(a).iterator ++ st.internal(b).iterator ++ crossBuf.iterator)
        .filterNot(removed).foreach(newInternal += _)
      newInternal ++= picksToEdges(p1, r1.solution.picks)
    }
    st.internal.remove(a); st.internal.remove(b)
    st.internal(m) = newInternal

    // ---- merge pair maps (smaller into larger), fix neighbors' back-refs
    val pa = st.pairs.remove(a).getOrElse(mutable.HashMap.empty)
    val pb = st.pairs.remove(b).getOrElse(mutable.HashMap.empty)
    val (smallP, largeP) = if (pa.size <= pb.size) (pa, pb) else (pb, pa)
    smallP.foreach { case (c, buf) =>
      largeP.get(c) match {
        case Some(b2) => b2 ++= buf
        case None     => largeP(c) = buf
      }
    }
    largeP.keysIterator.toArray.foreach { c =>
      val pc = st.pairs(c)
      pc.remove(a); pc.remove(b)
      pc(m) = largeP(c)
    }
    st.pairs(m) = largeP

    // ---- merge ground-truth subedge counts
    val sa = st.subCnt.remove(a).getOrElse(mutable.HashMap.empty)
    val sb = st.subCnt.remove(b).getOrElse(mutable.HashMap.empty)
    sa.remove(b); sb.remove(a)
    val (smallS, largeS) = if (sa.size <= sb.size) (sa, sb) else (sb, sa)
    smallS.foreach { case (c, n) => largeS(c) = largeS.getOrElse(c, 0) + n }
    largeS.keysIterator.toArray.foreach { c =>
      val sc = st.subCnt(c)
      val n = sc.getOrElse(a, 0) + sc.getOrElse(b, 0)
      sc.remove(a); sc.remove(b)
      if (n > 0) sc(m) = n
    }
    st.subCnt(m) = largeS

    // ---- Case 2: cross panels toward every neighbor root
    largeP.foreach { case (c, buf) =>
      val p2 = Panel.cross(chA, chB, a, b, m, c, st.childrenOf(c))
      val r2 = solvePanel(p2, buf.iterator)
      if (!r2.keepOld) {
        val removed = r2.oldPanel.toSet
        val kept = buf.filterNot(removed)
        val added = picksToEdges(p2, r2.solution.picks)
        val delta = added.size - removed.size
        buf.clear(); buf ++= kept ++= added
        st.pairTotal(c) = st.pairTotal(c) + delta
      }
    }

    // ---- counters
    st.famSize(m) = st.famSize.remove(a).get + st.famSize.remove(b).get + 1
    st.szSub(m) = st.szSub.remove(a).get + st.szSub.remove(b).get
    st.pairTotal.remove(a); st.pairTotal.remove(b)
    st.pairTotal(m) = largeP.valuesIterator.map(_.length).sum
    m
  }

  // ----------------------------------------------------- group processing

  /** Merging threshold θ(t), Eq. (9). */
  def theta(t: Int, bigT: Int): Double = if (t < bigT) 1.0 / (1.0 + t) else 0.0

  /** Algorithm 2: greedy merging within one candidate set. Returns the
    * number of merges performed.
    */
  def processGroup(group: Seq[Int], th: Double, rng: Random,
                   heightBound: Int = Int.MaxValue): Int = {
    val q = mutable.ArrayBuffer.from(
      group.iterator.map(st.find).distinct.filter(st.isRoot))
    var merges = 0
    while (q.length > 1) {
      val a = q.remove(rng.nextInt(q.length))
      if (st.isRoot(a)) {
        var bestZ = -1
        var bestS = Double.NegativeInfinity
        var i = 0
        while (i < q.length) {
          val z = q(i)
          if (st.isRoot(z) && z != a &&
              math.max(st.heightOf(a), st.heightOf(z)) + 1 <= heightBound &&
              closeEnough(a, z)) {
            val s = saving(a, z)
            if (s > bestS) { bestS = s; bestZ = z }
          }
          i += 1
        }
        if (bestZ >= 0 && bestS >= th) {
          val m = merge(a, bestZ)
          q -= bestZ
          q += m
          merges += 1
        }
      }
    }
    merges
  }
}

object MergeEngine {

  /** Outcome of one panel rewrite. `oldPanel` are the current edges inside
    * the panel; if `keepOld` the panel is left untouched (non-rewritable
    * corner cases), otherwise they are replaced by `solution`.
    */
  private final case class Rewrite(panel: Panel, oldPanel: List[Enc],
                                   solution: MinCover.Solution, keepOld: Boolean) {
    def newCost: Int = if (keepOld) oldPanel.size else solution.cost
  }
}
