package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.core.local.{CandidateGen, MergeEngine, PruneState, Pruner, Slugger, SummaryState}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** Pruning substeps (paper §III-B4, Algorithm 3). */
class PrunerSpec extends AnyFunSuite {

  /** Run the merge phase only and hand back (graph, prune state). */
  def merged(g: LocalGraph, bigT: Int = 8, seed: Long = 1): (LocalGraph, PruneState) = {
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    for (t <- 1 to bigT) {
      val rng = new Random(seed + t)
      CandidateGen.groups(st, seed + 100 * t).foreach(d =>
        e.processGroup(d, e.theta(t, bigT), rng))
    }
    (g, Pruner.fromState(st))
  }

  /** A hand-built state: each root in `roots` gets the listed leaves as its
    * children, every other supernode is a root of its own.
    */
  def handBuilt(g: LocalGraph, roots: Map[Int, Seq[Int]], edges: Seq[(Int, Int, Int)]): PruneState = {
    val nSup = roots.keys.max + 1
    val parent = Array.fill(nSup)(-1)
    val children = Array.fill(nSup)(mutable.HashSet.empty[Int])
    roots.foreach { case (r, ls) => ls.foreach(parent(_) = r); children(r) ++= ls }
    val ps = new PruneState(g.n, g.m, parent, Array.fill(nSup)(true), children)
    edges.foreach { case (x, y, s) => ps.addEdge(x, y, s) }
    ps
  }

  test("step 1 removes edge-free internal supernodes and reduces |H|") {
    val (g, ps) = merged(LocalGraph.fromEdges(
      for { i <- 0 until 8; j <- i + 1 until 8 } yield (i.toLong, j.toLong)))
    val h0 = ps.metrics.hCount
    val removed = Pruner.step1(ps)
    assert(ps.toSummary.decompress == g.edgeSet, "step 1 must be lossless")
    if (removed > 0) assert(ps.metrics.hCount < h0)
    // no surviving internal node is edge-free
    ps.parent.indices.foreach { x =>
      if (ps.alive(x) && ps.children(x).nonEmpty)
        assert(ps.inc(x).nonEmpty || ps.parent(x) < 0 || ps.children(x).nonEmpty)
    }
  }

  test("step 1 on a clique leaves a flat tree (root + leaves)") {
    val g = LocalGraph.fromEdges(for { i <- 0 until 8; j <- i + 1 until 8 } yield (i.toLong, j.toLong))
    val (_, ps) = merged(g)
    Pruner.step1(ps)
    val met = ps.metrics
    assert(met.maxHeight <= 2, s"height ${met.maxHeight} after splicing")
    assert(ps.toSummary.decompress == g.edgeSet)
  }

  test("step 2 pushes a single incident edge down to the children") {
    // build a state by hand: root 4 = {0,1} with one p-edge to node 2
    val g = LocalGraph.fromEdges(Seq((0L, 2L), (1L, 2L), (2L, 3L)))
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    val m = e.merge(0, 1)
    val ps = Pruner.fromState(st)
    // (m, 2) should be the single cross edge
    assert(ps.inc(m).size == 1)
    val removed = Pruner.step2(ps)
    assert(removed >= 1)
    assert(!ps.alive(m))
    assert(ps.toSummary.decompress == g.edgeSet, "step 2 must be lossless")
  }

  test("step 2 flips opposite-type edges instead of duplicating") {
    // graph over dense ids 0..3 with edges (0,2) and (1,3); hand-built state:
    // root 4 = {0,1}; p-edge (4,2) + n-edge (1,2) encode (0,2); p-edge (1,3)
    val g = LocalGraph.fromEdges(Seq((0L, 2L), (1L, 3L)))
    val parent = Array(4, 4, -1, -1, -1)
    val children = Array.fill(5)(scala.collection.mutable.HashSet.empty[Int])
    children(4) ++= Seq(0, 1)
    val ps = new repro.core.local.PruneState(4, g.m, parent, Array.fill(5)(true), children)
    ps.addEdge(4, 2, +1)
    ps.addEdge(1, 2, -1)
    ps.addEdge(1, 3, +1)
    assert(ps.toSummary.decompress == g.edgeSet)
    Pruner.step2(ps)
    assert(!ps.alive(4))
    assert(ps.sign.get(ps.pack(0, 2)).contains(1))
    assert(!ps.sign.contains(ps.pack(1, 2)), "opposite edge must cancel")
    assert(ps.toSummary.decompress == g.edgeSet)
  }

  test("step 3 falls back to flat encoding when it is cheaper") {
    val twoPairs = Map(4 -> Seq(0, 1), 5 -> Seq(2, 3))
    val cases = Seq(
      // K_{2,2} as four plain subedges: one p-edge between the roots is cheaper
      ("K22", LocalGraph.fromEdges(Seq((0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L))), twoPairs,
        Seq((0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)), Set((4, 5, 1))),
      // two of the four cross pairs as p(4,5) with two n-corrections: the
      // plain subedges are cheaper
      ("matching", LocalGraph.fromEdges(Seq((0L, 2L), (1L, 3L))), twoPairs,
        Seq((4, 5, 1), (0, 3, -1), (1, 2, -1)), Set((0, 2, 1), (1, 3, 1))),
      // a triangle as three plain subedges: one p-loop on its root is cheaper
      ("triangle", LocalGraph.fromEdges(Seq((0L, 1L), (0L, 2L), (1L, 2L))), Map(3 -> Seq(0, 1, 2)),
        Seq((0, 1, 1), (0, 2, 1), (1, 2, 1)), Set((3, 3, 1))),
    )
    cases.foreach { case (name, g, roots, edges, expected) =>
      val ps = handBuilt(g, roots, edges)
      assert(ps.toSummary.decompress == g.edgeSet, s"$name: hand-built state must be lossless")
      assert(Pruner.step3(ps, g) == 1, s"$name: step 3 must change the one root pair")
      val s = ps.toSummary
      assert((s.pPlus.map { case (x, y) => (x, y, 1) } ++ s.pMinus.map { case (x, y) => (x, y, -1) }).toSet
        == expected, name)
      assert(s.decompress == g.edgeSet, s"$name: step 3 must be lossless")
    }
  }

  test("full pruning is lossless and monotonically non-increasing in cost") {
    for (seed <- 1 to 6) {
      val g = randomGraph(50, 130, seed)
      val (_, ps) = merged(g)
      var last = Long.MaxValue
      Pruner.prune(ps, g, Slugger.Config().pruneRounds, (label, met) => {
        assert(met.cost <= last, s"substep $label increased cost (seed $seed)")
        last = met.cost
      })
      assert(ps.toSummary.decompress == g.edgeSet, s"lossy after pruning (seed $seed)")
    }
  }

  test("pruning reduces the maximum height (Table IV trend)") {
    val g = LocalGraph.fromEdges(
      (for { c <- 0 until 6; i <- 0 until 8; j <- i + 1 until 8 }
        yield ((c * 8 + i).toLong, (c * 8 + j).toLong)) ++ Seq((0L, 8L), (8L, 16L)))
    val (_, ps) = merged(g, bigT = 12)
    val h0 = ps.metrics.maxHeight
    Pruner.prune(ps, g, Slugger.Config().pruneRounds)
    assert(ps.metrics.maxHeight <= h0)
    assert(ps.toSummary.decompress == g.edgeSet)
  }

  test("snapshots are produced for states 0..3") {
    val g = randomGraph(30, 70, 9)
    val (_, ps) = merged(g)
    val labels = scala.collection.mutable.ArrayBuffer.empty[String]
    Pruner.prune(ps, g, rounds = 1, (l, _) => labels += l)
    assert(labels.toSeq == Seq("0", "1", "2", "3"))
  }
}
