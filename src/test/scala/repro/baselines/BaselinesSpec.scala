package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.{clique, randomGraph}
import repro.core.model.FlatModel
import repro.graph.LocalGraph
import scala.util.Random

/** Flat-model substrate and the four competitor algorithms. */
class BaselinesSpec extends AnyFunSuite {

  // ---- FlatModel.encode -----------------------------------------------------

  test("encode with all-singleton grouping is the identity") {
    val g = randomGraph(20, 40, 1)
    val s = FlatModel.encode(g, Array.tabulate(g.n)(identity))
    assert(s.cost == g.m)
    assert(s.decompress == g.edgeSet)
  }

  test("encode of a clique grouped as one supernode costs |A| + 1") {
    val g = clique(6)
    val s = FlatModel.encode(g, Array.fill(g.n)(0))
    assert(s.decompress == g.edgeSet)
    assert(s.cost == 6 + 1) // six h*-edges + one self p-loop
  }

  test("encode picks corrections when a pair is nearly complete") {
    // bipartite 3x3 minus one edge: p-edge + 1 n-correction beats 8 subedges
    val edges = for { i <- 0 until 3; j <- 3 until 6 if !(i == 0 && j == 3) } yield (i.toLong, j.toLong)
    val g = LocalGraph.fromEdges(edges)
    val superOf = Array(0, 0, 0, 1, 1, 1)
    val s = FlatModel.encode(g, superOf)
    assert(s.decompress == g.edgeSet)
    assert(s.pPlus.size == 1 && s.pMinus.size == 1)
    assert(s.cost == 6 + 1 + 1)
  }

  test("encode keeps plain subedges when the pair is sparse") {
    val edges = Seq((0L, 3L)) // single edge between two size-3 groups
    val g = LocalGraph.fromEdges(edges)
    val superOf = Array(0, 1) // only nodes 0 and 3 exist after densify
    val s = FlatModel.encode(g, superOf)
    assert(s.decompress == g.edgeSet)
    assert(s.cost == 1)
  }

  // ---- FlatState ------------------------------------------------------------

  test("FlatState merge keeps counts consistent") {
    val g = randomGraph(25, 60, 2)
    val fs = new FlatState(g)
    val rng = new Random(1)
    var steps = 0
    while (steps < 8) {
      val roots = fs.roots.filter(fs.cnt.contains)
      val a = roots(rng.nextInt(roots.size))
      val cands = fs.cnt(a).keysIterator.filter(_ != a).toSeq
      if (cands.nonEmpty) { fs.merge(a, cands.head); () }
      steps += 1
    }
    // aggregate counts must equal ground truth between member sets
    val superOf = fs.superOf
    val truth = scala.collection.mutable.HashMap.empty[(Int, Int), Int]
    g.edges.foreach { case (u, v) =>
      val k = (math.min(superOf(u), superOf(v)), math.max(superOf(u), superOf(v)))
      truth(k) = truth.getOrElse(k, 0) + 1
    }
    fs.roots.filter(fs.cnt.contains).foreach { r =>
      fs.cnt(r).foreach { case (c, n) =>
        val k = (math.min(r, c), math.max(r, c))
        assert(truth.getOrElse(k, 0) == n, s"count mismatch at $k")
      }
    }
  }

  test("FlatState gain matches Navlakha semantics for twins") {
    val g = LocalGraph.fromEdges(for (t <- 0 to 1; o <- 2 to 5) yield (t.toLong, o.toLong))
    val fs = new FlatState(g)
    // before: 4 + 4 = 8; merged: 2 (H*) + 4 cross = 6 -> gain 0.25
    assert(math.abs(fs.gain(0, 1) - 0.25) < 1e-9)
  }

  // ---- algorithms -----------------------------------------------------------

  for ((name, run) <- Seq[(String, LocalGraph => repro.core.model.HierSummary)](
    "RANDOMIZED" -> (g => Randomized.summarize(g, 7)),
    "SWEG"       -> (g => Sweg.summarize(g, 10, 7)),
    "SAGS"       -> (g => Sags.summarize(g, seed = 7)),
    "MOSSO-LITE" -> (g => MossoLite.summarize(g, seed = 7)),
  )) {
    test(s"$name is lossless on random graphs") {
      for (seed <- 1 to 3) {
        val g = randomGraph(40, 110, seed)
        assert(run(g).decompress == g.edgeSet, s"$name lossy (seed $seed)")
      }
    }

    test(s"$name is lossless and compressive on a clique union") {
      val g = LocalGraph.fromEdges(
        for { c <- 0 until 8; i <- 0 until 6; j <- i + 1 until 6 }
          yield ((c * 6 + i).toLong, (c * 6 + j).toLong))
      val s = run(g)
      assert(s.decompress == g.edgeSet)
      if (name != "SAGS" && name != "MOSSO-LITE") // sampling-based ones may miss structure
        assert(s.cost < g.m, s"$name failed to compress cliques: ${s.cost} vs ${g.m}")
    }

    test(s"$name output uses only height-1 hierarchies (flat model)") {
      val g = randomGraph(30, 80, 4)
      assert(run(g).maxHeight <= 1)
    }
  }

  test("SWEG jaccard is 1 for identical neighborhoods, 0 for disjoint") {
    val g = LocalGraph.fromEdges(
      (for (t <- 0 to 1; o <- 2 to 4) yield (t.toLong, o.toLong)) ++ Seq((5L, 6L)))
    val fs = new FlatState(g)
    assert(Sweg.jaccard(fs, 0, 1) == 1.0)
    assert(Sweg.jaccard(fs, 0, 5) == 0.0)
  }

  test("RANDOMIZED compresses twins that SAGS may miss") {
    val g = LocalGraph.fromEdges(for (t <- 0 to 3; o <- 4 to 11) yield (t.toLong, o.toLong))
    val s = Randomized.summarize(g, 3)
    assert(s.decompress == g.edgeSet)
    assert(s.cost < g.m)
  }
}
