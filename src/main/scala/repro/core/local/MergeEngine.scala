package repro.core.local

import repro.core.encode.{Enc, MinCover, Panel}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** Greedy merging with simultaneous encoding updates (paper §III-B3).
  *
  * For a merger of roots A and B the engine plans
  *  - a rewrite of the p/n-edges inside the merged family's top panel (Case 1),
  *  - a rewrite of the p/n-edges between that panel and every neighbor
  *    root's 1-level family (Case 2),
  * picking, per panel, a minimum-size valid encoding through the memoized
  * [[MinCover]] search. Edges below the panels are kept fixed. [[saving]]
  * prices that plan and [[merge]] commits the same plan.
  */
final class MergeEngine(val st: MergeSubstrate) {
  import MergeEngine.{Plan, Rewrite}

  /** The minimum rewrite of one panel's edges. Every edge inside the panel
    * sits at a legal slot and each slot nets to at most one edge: merges
    * place edges only at slots, initial edges join distinct leaves, and a
    * position holds at most one edge of each sign. A state that breaks this
    * is rejected.
    */
  private def rewrite(panel: Panel, input: Iterator[Enc]): Rewrite = {
    val shape = panel.shape
    val netBySlot = new Array[Int](shape.slots.length)
    val all = mutable.ArrayBuffer.empty[Enc]
    val deep = mutable.ArrayBuffer.empty[Enc] // an endpoint outside the panel
    /** The slot an edge sits at, or -1 if an endpoint is outside the panel. */
    def slotOf(e: Enc): Int = {
      val sx = panel.symOf(e.x); val sy = panel.symOf(e.y)
      if (sx < 0 || sy < 0) -1
      else {
        val s = shape.slotOf(sx, sy)
        require(s >= 0, s"panel shape ${shape.code}: edge $e is at a position that is not a slot")
        s
      }
    }
    input.foreach { e =>
      all += e
      val s = slotOf(e)
      if (s < 0) deep += e else netBySlot(s) += e.sign
    }
    if (deep.length == all.length) return Rewrite(panel, all, Nil)
    val targets = new Array[Int](shape.nCons)
    val reproduce = mutable.ListBuffer.empty[(Int, Int)]
    var s = 0
    while (s < netBySlot.length) {
      val net = netBySlot(s)
      if (net != 0) {
        require(net == 1 || net == -1, s"panel shape ${shape.code}: slot $s nets to $net, " +
          s"edges ${all.filter(e => slotOf(e) == s).mkString(", ")}")
        reproduce += ((s, net))
        val cov = shape.slotCovers(s)
        var c = 0
        while (c < shape.nCons) { if ((cov >> c & 1L) == 1L) targets(c) += net; c += 1 }
      }
      s += 1
    }
    Rewrite(panel, deep, MinCover.solve(shape, targets, reproduce.toList))
  }

  /** The encoding update of merging roots a and b, read from the state
    * without mutating it: the Case 1 rewrite of the merged family and one
    * Case 2 rewrite per neighbor root. A Case 2 panel's input lists the
    * larger pair map's edges first, the order in which [[merge]] joins them.
    */
  private def plan(a: Int, b: Int): Plan = {
    val chA = st.childrenOf(a); val chB = st.childrenOf(b)
    val pa = st.pairs(a); val pb = st.pairs(b)
    val internal = rewrite(Panel.internal(chA, chB, a, b, st.isLeafSuper),
      st.internal(a).iterator ++ st.internal(b).iterator ++ pa.get(b).iterator.flatten)
    val (small, large) = if (pa.size <= pb.size) (pa, pb) else (pb, pa)
    val cross = (large.keysIterator ++ small.keysIterator.filterNot(large.contains))
      .filter(c => c != a && c != b)
      .map(c => c -> rewrite(Panel.cross(chA, chB, a, b, c, st.childrenOf(c)),
        large.get(c).iterator.flatten ++ small.get(c).iterator.flatten))
    Plan(internal, cross.toSeq)
  }

  // ------------------------------------------------------------- evaluation

  /** Can merging these two roots possibly pay off? Roots at distance >= 3
    * never do (Lemma 1): they must be adjacent or share a neighbor root.
    */
  def closeEnough(a: Int, b: Int): Boolean = {
    val ca = st.pairs(a); val cb = st.pairs(b)
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
    val p = plan(a, b)
    var edges = 0L
    var incA = 0; var incB = 0 // surviving edges incident to A / B themselves
    (p.internal +: p.cross.map(_._2)).foreach(_.edges(-1).foreach { e =>
      edges += 1
      if (e.x == a || e.y == a) incA += 1
      if (e.x == b || e.y == b) incB += 1
    })
    var credit = 0L
    if (st.childrenOf(a).nonEmpty && incA == 0) credit += 1
    if (st.childrenOf(b).nonEmpty && incB == 0) credit += 1
    (st.famSize(a) + st.famSize(b) + edges, credit)
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

  /** Merge roots a and b, commit the rewrites [[saving]] priced, return the
    * new root id.
    */
  def merge(a: Int, b: Int): Int = {
    require(st.isRoot(a) && st.isRoot(b) && a != b, s"merge($a,$b): not distinct roots")
    val p = plan(a, b)
    val pa = st.pairs.remove(a).get; val pb = st.pairs.remove(b).get
    pa.remove(b); pb.remove(a)
    val m = st.newSuper(a, b)

    // ---- Case 1: internal panel
    st.internal.remove(a); st.internal.remove(b)
    st.internal(m) = mutable.ArrayBuffer.from(p.internal.edges(m))

    // ---- merge pair maps (smaller into larger), fix neighbors' back-refs
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

    // ---- Case 2: cross panels toward every neighbor root
    p.cross.foreach { case (c, r) =>
      val buf = largeP(c)
      buf.clear(); buf ++= r.edges(m)
    }

    st.famSize(m) = st.famSize.remove(a).get + st.famSize.remove(b).get + 1
    m
  }

  // ----------------------------------------------------- group processing

  /** Merging threshold θ(t), Eq. (9); forwards to [[MergeEngine.theta]] for
    * callers that hold an engine (perfbench's `TracedSlugger`, the tests).
    */
  def theta(t: Int, bigT: Int): Double = MergeEngine.theta(t, bigT)

  /** Algorithm 2 on one candidate set with SLUGGER's partner: among the
    * queued roots within distance 2 of `a` whose merger stays within the
    * height bound, the one of highest Saving, accepted if that Saving is at
    * least `th`. Returns the number of merges performed.
    */
  def processGroup(group: Seq[Int], th: Double, rng: Random,
                   heightBound: Int = Int.MaxValue): Int =
    MergeEngine.greedy(group, rng, st.isRoot) { (a, q) =>
      var bestZ = -1
      var bestS = Double.NegativeInfinity
      var i = 0
      while (i < q.length) {
        val z = q(i)
        if (math.max(st.heightOf(a), st.heightOf(z)) + 1 <= heightBound && closeEnough(a, z)) {
          val s = saving(a, z)
          if (s > bestS) { bestS = s; bestZ = z }
        }
        i += 1
      }
      if (bestZ >= 0 && bestS >= th) bestZ else -1
    }(merge)
}

object MergeEngine {

  /** Merging threshold θ(t), Eq. (9). */
  def theta(t: Int, bigT: Int): Double = if (t < bigT) 1.0 / (1.0 + t) else 0.0

  /** Algorithm 1's merging phase, shared by SLUGGER (local and distributed)
    * and SWEG. For t = 1..T it takes the min-hash candidate sets of the
    * roots under `find` (seed `seed + 7919·t`, at most `maxGroupSize` roots
    * each) and calls `mergeSets(sets, θ(t), rngSeed)` with the processing
    * order's seed `seed·31 + t`; `mergeSets` merges within the sets and
    * returns the number of merges it committed. Returns the total.
    */
  def mergePhase(g: LocalGraph, find: Int => Int, bigT: Int, seed: Long, maxGroupSize: Int)
                (mergeSets: (Seq[Seq[Int]], Double, Long) => Long): Long =
    (1 to bigT).foldLeft(0L) { (merges, t) =>
      merges + mergeSets(CandidateGen.groupsOf(g, find, seed + 7919L * t, maxGroupSize),
        theta(t, bigT), seed * 31 + t)
    }

  /** Algorithm 2, greedy merging within one candidate set, shared by
    * SLUGGER ([[MergeEngine.processGroup]]) and SWEG. `roots` must be
    * distinct live roots. Until one root is left: pop a random root `a`, ask
    * `partner(a, queue)` for the queued root to merge it with (or -1), and
    * replace that partner with the root `merge` returns. Returns the number
    * of merges.
    */
  def greedy(roots: Seq[Int], rng: Random, isRoot: Int => Boolean)
            (partner: (Int, collection.IndexedSeq[Int]) => Int)
            (merge: (Int, Int) => Int): Int = {
    val q = mutable.ArrayBuffer.from(roots)
    val seen = mutable.HashSet.empty[Int]
    q.foreach { r =>
      require(isRoot(r), s"candidate set holds $r, which is not a live root")
      require(seen.add(r), s"candidate set holds $r twice")
    }
    var merges = 0
    while (q.length > 1) {
      val a = q.remove(rng.nextInt(q.length))
      val z = partner(a, q)
      if (z >= 0) {
        val m = merge(a, z)
        q -= z
        q += m
        merges += 1
      }
    }
    merges
  }

  /** One panel's rewrite: `kept` are the input edges it leaves in place
    * (all of them when no edge lies inside the panel), `picks` the
    * (slot, sign) edges it places.
    */
  private final case class Rewrite(panel: Panel, kept: Iterable[Enc], picks: List[(Int, Int)]) {
    /** The panel's edges after the rewrite, with `m` as M's id. */
    def edges(m: Int): Iterator[Enc] =
      kept.iterator ++ picks.iterator.map { case (s, sign) => panel.edge(s, sign, m) }
  }

  /** The rewrites of one merger: Case 1, then Case 2 per neighbor root. */
  private final case class Plan(internal: Rewrite, cross: Seq[(Int, Rewrite)])
}
