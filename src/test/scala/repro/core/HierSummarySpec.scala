package repro.core

import repro.SparkSpec
import repro.core.model.HierSummary
import repro.core.spark.SparkSummary
import repro.graph.{GraphGen, LocalGraph}

/** Model mechanics of the hierarchical graph summarization model (paper §II-B),
  * pinned on the paper's Fig. 2 example.
  */
class HierSummarySpec extends SparkSpec {

  /** Fig. 2 (final step): supernode 7 = {0,1,2,3} contains supernode 6 = {2,3};
    * p-edge (7,5) asserts edges 0-5,1-5,2-5,3-5; n-edge (6,5) retracts 2-5,3-5;
    * a p-loop at 6 encodes the edge 2-3.
    */
  def fig2: HierSummary = HierSummary(
    nSub = 6,
    parent = Array(7, 7, 6, 6, -1, -1, 7, -1),
    alive = Array.fill(8)(true),
    pPlus = Seq((5, 7), (6, 6)),
    pMinus = Seq((5, 6)),
  )

  test("Fig. 2: decompression follows the more-p-than-n rule") {
    assert(fig2.decompress == Set((0, 5), (1, 5), (2, 3)))
  }

  test("Fig. 2: cost counts p-, n-, and h-edges") {
    assert(fig2.hEdgeCount == 5) // 0,1,6 under 7; 2,3 under 6
    assert(fig2.cost == 2 + 1 + 5)
  }

  test("Fig. 2: heights and depths") {
    assert(fig2.maxHeight == 2)
    assert(math.abs(fig2.avgLeafDepth - 1.0) < 1e-12) // depths 1,1,2,2,0,0
    assert(fig2.depthOf(2) == 2 && fig2.depthOf(4) == 0)
  }

  test("Fig. 2: leavesOf expands the hierarchy") {
    assert(fig2.leavesOf(7).toSet == Set(0, 1, 2, 3))
    assert(fig2.leavesOf(6).toSet == Set(2, 3))
    assert(fig2.leavesOf(4).toSet == Set(4))
  }

  test("Fig. 2: roots and children") {
    assert(fig2.roots.toSet == Set(4, 5, 7))
    assert(fig2.children(7).toSet == Set(0, 1, 6))
  }

  test("Fig. 2: partial decompression (Algorithm 4) matches full decompression") {
    val full = fig2.decompress
    (0 until 6).foreach { v =>
      val expected = full.collect { case (a, b) if a == v => b; case (a, b) if b == v => a }
      assert(fig2.neighbors(v) == expected, s"neighbors($v)")
    }
  }

  test("neighbors rejects ids that are not subnodes, naming v and nSub") {
    Seq(-1, 6, 7, 8).foreach { v =>
      val e = intercept[IllegalArgumentException](fig2.neighbors(v))
      assert(e.getMessage.contains(s"neighbors($v)") && e.getMessage.contains("nSub = 6"), e.getMessage)
    }
    val empty = HierSummary(0, Array.empty, Array.empty, Nil, Nil)
    assert(intercept[IllegalArgumentException](empty.neighbors(0)).getMessage.contains("nSub = 0"))
    assert(empty.decompress.isEmpty && empty.maxHeight == 0)
  }

  test("an isolated leaf has no neighbors") {
    assert(fig2.neighbors(4).isEmpty && fig2.neighborArray(4).isEmpty)
    assert(fig2.leavesOf(4).sameElements(Seq(4)))
  }

  /** v's neighbors as `pairNets` derives them: partners with net >= 1. */
  def viaPairNets(s: HierSummary, v: Int): Set[Int] =
    s.pairNets.collect { case ((a, b), c) if c >= 1 && (a == v || b == v) => a + b - v }.toSet

  /** Every subnode's neighbors agree with `pairNets` and with `expected`,
    * and come back in ascending order.
    */
  def assertNeighbors(s: HierSummary, expected: Map[Int, Set[Int]]): Unit =
    (0 until s.nSub).foreach { v =>
      val got = s.neighborArray(v)
      assert(got.toSeq == got.toSeq.sorted, s"neighbors($v) not ascending: ${got.mkString(",")}")
      assert(s.neighbors(v) == viaPairNets(s, v), s"neighbors($v) vs pairNets")
      assert(s.neighbors(v) == expected.getOrElse(v, Set.empty), s"neighbors($v)")
    }

  test("sweep: a loop at an ancestor of v covers the ancestor's other leaves") {
    // 5 = {0, 2}, 6 = {5, 3}; a p-loop at 6 and a leaf p-edge 1-4. DFS
    // order is 1, 4, 3, 0, 2, so leaf positions differ from leaf ids.
    val s = HierSummary(5, Array(5, -1, 5, 6, -1, 6, -1), Array.fill(7)(true),
      pPlus = Seq((6, 6), (1, 4)), pMinus = Nil)
    assert(s.leavesOf(6).toSeq == Seq(3, 0, 2))
    assertNeighbors(s, Map(0 -> Set(2, 3), 2 -> Set(0, 3), 3 -> Set(0, 2), 1 -> Set(4), 4 -> Set(1)))
  }

  test("sweep: an n-edge cancels part of an ancestor's p-edge") {
    // 5 = {0, 1}, 6 = {5, 2}; p-edge (3, 6) asserts 3-0, 3-1 and 3-2, the
    // leaf n-edge (0, 3) retracts 3-0, and the leaf p-edge 2-4 stays
    val s = HierSummary(5, Array(5, 5, 6, -1, -1, 6, -1), Array.fill(7)(true),
      pPlus = Seq((3, 6), (2, 4)), pMinus = Seq((0, 3)))
    assertNeighbors(s, Map(1 -> Set(3), 2 -> Set(3, 4), 3 -> Set(1, 2), 4 -> Set(2)))
  }

  test("sweep: an edge between nested supernodes counts the inner pairs twice, as pairNets does") {
    // 3 = {0, 1}, 4 = {3, 2}; p-edge (3, 4) nets +2 on 0-1 and +1 on 0-2
    // and 1-2, so the n-edge (0, 1) leaves all three edges in place
    val nested = HierSummary(3, Array(3, 3, 4, 4, -1), Array.fill(5)(true),
      pPlus = Seq((3, 4)), pMinus = Seq((0, 1)))
    assert(nested.pairNets.toMap == Map((0, 1) -> 1, (0, 2) -> 1, (1, 2) -> 1))
    assertNeighbors(nested, Map(0 -> Set(1, 2), 1 -> Set(0, 2), 2 -> Set(0, 1)))
  }

  test("sweep: a pruned supernode has no leaves and its old children answer through their new parent") {
    // 4 = {0, 1} was pruned: 0 and 1 now hang from 5 = {0, 1, 2}, and 4
    // keeps a stale parent pointer but no edges
    val s = HierSummary(4, Array(5, 5, 5, -1, 5, -1), Array(true, true, true, true, false, true),
      pPlus = Seq((3, 5)), pMinus = Nil)
    assert(s.leavesOf(4).isEmpty && s.leavesOf(5).toSet == Set(0, 1, 2))
    assertNeighbors(s, Map(0 -> Set(3), 1 -> Set(3), 2 -> Set(3), 3 -> Set(0, 1, 2)))
  }

  test("neighbors is an immutable Set[Int] backed by a sorted array") {
    // 8 = {1, 3, 5, 7}; DFS order 0, 2, 4, 6, 1, 3, 5, 7
    val s = HierSummary(8, Array(-1, 8, -1, 8, -1, 8, -1, 8, -1), Array.fill(9)(true),
      pPlus = Seq((0, 8), (0, 6)), pMinus = Nil)
    val nb = s.neighbors(0)
    val same = scala.collection.immutable.HashSet(7, 6, 5, 3, 1)
    assert(nb == same && same == nb && nb.hashCode == same.hashCode)
    assert(nb != Set(1, 3, 5, 6) && nb != Set(1, 3, 5, 6, 7, 8))
    assert(nb.size == 5 && nb.toSeq == Seq(1, 3, 5, 6, 7))
    val seen = scala.collection.mutable.ArrayBuffer.empty[Int]
    nb.foreach(seen += _)
    assert(seen == Seq(1, 3, 5, 6, 7))
    assert(Seq(1, 3, 5, 6, 7).forall(nb.contains))
    assert(!Seq(0, 2, 4, 8, -1, Int.MinValue, Int.MaxValue).exists(nb.contains))
    assert((nb + 4).toSeq == Seq(1, 3, 4, 5, 6, 7) && (nb + 4).size == 6)
    assert((nb + -2).toSeq == Seq(-2, 1, 3, 5, 6, 7) && (nb + 9).toSeq == Seq(1, 3, 5, 6, 7, 9))
    assert((nb + 3) == nb && (nb - 2) == nb)
    assert((nb - 5).toSeq == Seq(1, 3, 6, 7) && (nb - 1 - 7).toSeq == Seq(3, 5, 6))
    assert((nb -- Seq(1, 3, 5, 6, 7)).isEmpty)
    val none = s.neighbors(2)
    assert(none.isEmpty && none.size == 0 && none == Set.empty[Int] && none.hashCode == Set.empty[Int].hashCode)
    assert((none + 2) == Set(2))
  }

  test("Fig. 2: composition sums to one") {
    val (p, n, h) = fig2.composition
    assert(math.abs(p + n + h - 1.0) < 1e-12)
    assert(p == 2.0 / 8 && n == 1.0 / 8 && h == 5.0 / 8)
  }

  test("heights of a 10,000-level caterpillar hierarchy need no deep recursion") {
    // spine supernodes nSub + i, i < k: each holds leaf i and the next spine
    // node; the last one holds leaves k-1 and k. Depths run 0..k.
    val k = 9999
    val nSub = k + 1
    val parent = Array.tabulate(nSub + k) { x =>
      if (x < k) nSub + x else if (x == k) nSub + k - 1 else if (x == nSub) -1 else x - 1
    }
    val s = HierSummary(nSub, parent, Array.fill(parent.length)(true), Nil, Nil)
    assert(s.roots == Seq(nSub))
    assert(s.maxHeight == 9999)
    assert(s.heightOf(nSub + k - 1) == 1 && s.heightOf(0) == 0)
  }

  test("identity summary reproduces the input graph at cost |E|") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (2L, 3L), (0L, 3L)))
    val id = HierSummary.identity(g.n, g.edges)
    assert(id.cost == g.m)
    assert(id.decompress == g.edgeSet)
    assert(id.maxHeight == 0 && id.avgLeafDepth == 0.0)
  }

  test("relativeSize of the identity summary is 1") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L)))
    assert(HierSummary.identity(g.n, g.edges).relativeSize(g.m) == 1.0)
  }

  test("partial decompression on a random summarized graph") {
    val g = LocalGraph.fromDF(GraphGen.cliqueUnion(spark, 8, 5, 20, seed = 3))
    val s = repro.core.local.Slugger.summarize(g, repro.core.local.Slugger.Config(T = 10)).summary
    val full = s.decompress
    (0 until g.n by 7).foreach { v =>
      val expected = full.collect { case (a, b) if a == v => b; case (a, b) if b == v => a }
      assert(s.neighbors(v) == expected, s"neighbors($v)")
    }
  }

  test("decompressDF (Spark) agrees with local decompression") {
    val g = LocalGraph.fromDF(GraphGen.cliqueUnion(spark, 6, 5, 15, seed = 4))
    val s = repro.core.local.Slugger.summarize(g, repro.core.local.Slugger.Config(T = 10)).summary
    val viaDF = SparkSummary.decompressDF(SparkSummary.toFrames(spark, s))
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(viaDF == s.decompress)
  }

  test("decompressDF handles self-loop p-edges (supernode cliques)") {
    val g = LocalGraph.fromEdges(for { i <- 0 until 6; j <- i + 1 until 6 } yield (i.toLong, j.toLong))
    val s = repro.core.local.Slugger.summarize(g, repro.core.local.Slugger.Config(T = 8)).summary
    assert(s.pPlus.exists { case (x, y) => x == y }, "expected a loop encoding the clique")
    val viaDF = SparkSummary.decompressDF(SparkSummary.toFrames(spark, s))
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(viaDF == g.edgeSet)
  }

  test("toFrames exports consistent membership") {
    val fr = SparkSummary.toFrames(spark, fig2)
    assert(fr.hier.count() == 5)
    assert(fr.pn.count() == 3)
    val leaves7 = fr.leaves.where(org.apache.spark.sql.functions.col("sup") === 7)
      .collect().map(_.getInt(1)).toSet
    assert(leaves7 == Set(0, 1, 2, 3))
  }
}
