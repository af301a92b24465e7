package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.core.local.{CandidateGen, MergeEngine, SummaryState}
import repro.graph.LocalGraph

/** Min-hash candidate generation (paper §III-B2). */
class CandidateGenSpec extends AnyFunSuite {

  test("mix is deterministic and spreads values") {
    assert(CandidateGen.mix(1, 42) == CandidateGen.mix(1, 42))
    assert(CandidateGen.mix(1, 42) != CandidateGen.mix(2, 42))
    val vals = (0 until 1000).map(i => CandidateGen.mix(7, i)).distinct
    assert(vals.size == 1000)
  }

  test("groups partition a subset of roots, each group >= 2 roots") {
    val st = new SummaryState(randomGraph(100, 250, 1))
    val gs = CandidateGen.groups(st, seed = 5)
    gs.foreach(g => assert(g.size >= 2))
    val flat = gs.flatten
    assert(flat.distinct.size == flat.size, "groups overlap")
    flat.foreach(r => assert(st.isRoot(r)))
  }

  test("no group exceeds the size cap") {
    val st = new SummaryState(randomGraph(800, 1600, 2))
    val gs = CandidateGen.groups(st, seed = 5, maxSize = 50)
    gs.foreach(g => assert(g.size <= 50, s"group of ${g.size}"))
  }

  test("twin nodes land in the same candidate set") {
    // 0 and 1 share all neighbors -> identical shingles -> same group
    val g = LocalGraph.fromEdges(
      (for (t <- 0 to 1; o <- 2 to 6) yield (t.toLong, o.toLong)) ++
      Seq((7L, 8L), (8L, 9L))) // far-away component
    val st = new SummaryState(g)
    val gs = CandidateGen.groups(st, seed = 3)
    val withBoth = gs.filter(grp => grp.contains(0) && grp.contains(1))
    assert(withBoth.nonEmpty, s"groups were $gs")
  }

  test("grouping is deterministic in the seed") {
    val st = new SummaryState(randomGraph(120, 260, 4))
    val a = CandidateGen.groups(st, seed = 9).map(_.sorted).sortBy(_.head)
    val b = CandidateGen.groups(st, seed = 9).map(_.sorted).sortBy(_.head)
    assert(a == b)
  }

  test("different seeds vary the candidate sets") {
    val st = new SummaryState(randomGraph(120, 260, 4))
    val a = CandidateGen.groups(st, seed = 9).map(_.sorted).sortBy(_.head)
    val b = CandidateGen.groups(st, seed = 10).map(_.sorted).sortBy(_.head)
    assert(a != b)
  }

  test("groups reflect merges: merged roots appear by their new id") {
    val g = LocalGraph.fromEdges(for (t <- 0 to 1; o <- 2 to 6) yield (t.toLong, o.toLong))
    val st = new SummaryState(g)
    new MergeEngine(st).merge(0, 1)
    val gs = CandidateGen.groups(st, seed = 3)
    gs.flatten.foreach(r => assert(st.isRoot(r)))
    assert(!gs.flatten.contains(0) && !gs.flatten.contains(1))
  }

  test("isolated subnodes do not crash grouping") {
    // node ids with gaps: LocalGraph densifies, but singleton roots with
    // no shared shingle end up alone and are filtered out
    val st = new SummaryState(LocalGraph.fromEdges(Seq((0L, 1L), (2L, 3L))))
    val gs = CandidateGen.groups(st, seed = 1)
    gs.foreach(g => assert(g.size >= 2))
  }

  test("shingle of a root is the min over its subnodes' closed neighborhoods") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L)))
    val st = new SummaryState(g)
    val f = CandidateGen.rootShingles(st, seed = 11, level = 0)
    val h = (v: Int) => CandidateGen.mix(11, v.toLong)
    assert(f(0) == math.min(h(0), h(1)))
    assert(f(1) == Seq(h(0), h(1), h(2)).min)
  }
}
