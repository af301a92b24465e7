package repro.core

import repro.SparkSpec
import repro.core.model.HierSummary
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
    val viaDF = HierSummary.decompressDF(spark, s.toFrames(spark))
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(viaDF == s.decompress)
  }

  test("decompressDF handles self-loop p-edges (supernode cliques)") {
    val g = LocalGraph.fromEdges(for { i <- 0 until 6; j <- i + 1 until 6 } yield (i.toLong, j.toLong))
    val s = repro.core.local.Slugger.summarize(g, repro.core.local.Slugger.Config(T = 8)).summary
    assert(s.pPlus.exists { case (x, y) => x == y }, "expected a loop encoding the clique")
    val viaDF = HierSummary.decompressDF(spark, s.toFrames(spark))
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(viaDF == g.edgeSet)
  }

  test("toFrames exports consistent membership") {
    val fr = fig2.toFrames(spark)
    assert(fr.hier.count() == 5)
    assert(fr.pn.count() == 3)
    val leaves7 = fr.leaves.where(org.apache.spark.sql.functions.col("sup") === 7)
      .collect().map(_.getInt(1)).toSet
    assert(leaves7 == Set(0, 1, 2, 3))
  }
}
