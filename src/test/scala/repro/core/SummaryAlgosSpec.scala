package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.core.local.Slugger
import repro.core.model.{HierSummary, SummaryAlgos}
import repro.graph.LocalGraph

/** Algorithms on the summary (paper §VIII-C) must agree with the same
  * algorithms on the raw graph — the summary is accessed only through
  * partial decompression.
  */
class SummaryAlgosSpec extends AnyFunSuite {

  def summarize(g: LocalGraph): HierSummary =
    Slugger.summarize(g, Slugger.Config(T = 8, seed = 5)).summary

  def rawBfs(g: LocalGraph, start: Int): Map[Int, Int] = {
    val dist = scala.collection.mutable.HashMap(start -> 0)
    val q = scala.collection.mutable.ArrayDeque(start)
    while (q.nonEmpty) {
      val v = q.removeHead()
      g.adj(v).foreach(u => if (!dist.contains(u)) { dist(u) = dist(v) + 1; q.append(u) })
    }
    dist.toMap
  }

  test("DFS on the summary visits exactly the reachable component") {
    val g = randomGraph(40, 80, 1)
    val s = summarize(g)
    val visited = SummaryAlgos.dfs(s, 0).toSet
    assert(visited == rawBfs(g, 0).keySet)
  }

  test("DFS visits a vertex, then its unvisited neighbors in ascending order, depth first") {
    // 0-3, 0-1, 1-4, 4-2, 3-5, 6 isolated: from 0, neighbor 1 comes before
    // 3, and 1's subtree (4, then 2) is finished before 3 is visited
    val s = HierSummary.identity(7, Iterator((0, 3), (0, 1), (1, 4), (4, 2), (3, 5)))
    assert(SummaryAlgos.dfs(s, 0) == Seq(0, 1, 4, 2, 3, 5))
    assert(SummaryAlgos.dfs(s, 6) == Seq(6))
  }

  test("DFS on a 10,000-vertex path visits every vertex") {
    val n = 10000
    val s = HierSummary.identity(n, Iterator.range(0, n - 1).map(i => (i, i + 1)))
    assert(SummaryAlgos.dfs(s, 0) == (0 until n))
  }

  test("BFS distances on the summary equal BFS distances on the raw graph") {
    for (seed <- 1 to 3) {
      val g = randomGraph(35, 90, seed)
      val s = summarize(g)
      assert(SummaryAlgos.bfs(s, 0) == rawBfs(g, 0), s"seed $seed")
    }
  }

  test("PageRank on the summary equals PageRank on the raw graph") {
    val g = randomGraph(30, 80, 7)
    val s = summarize(g)
    val onSummary = SummaryAlgos.pageRank(s)
    val onRaw = SummaryAlgos.pageRank(HierSummary.identity(g.n, g.edges))
    onSummary.zip(onRaw).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
  }

  test("triangle counts agree on a clique union") {
    val g = LocalGraph.fromEdges(
      for { c <- 0 until 4; i <- 0 until 5; j <- i + 1 until 5 }
        yield ((c * 5 + i).toLong, (c * 5 + j).toLong))
    val s = summarize(g)
    assert(SummaryAlgos.triangles(s) == 4L * 10) // C(5,3)=10 per clique
  }

  test("BFS, DFS, PageRank and triangles on an isolated leaf and on the empty summary") {
    // 0-1, 1-2 and leaf 3 with no edges, under one supernode 4 = {0, 1, 2, 3}
    val s = HierSummary(4, Array(4, 4, 4, 4, -1), Array.fill(5)(true), Seq((0, 1), (1, 2)), Nil)
    assert(SummaryAlgos.bfs(s, 3) == Map(3 -> 0) && SummaryAlgos.dfs(s, 3) == Seq(3))
    assert(SummaryAlgos.bfs(s, 0) == Map(0 -> 0, 1 -> 1, 2 -> 2))
    assert(SummaryAlgos.triangles(s) == 0)
    val rank = SummaryAlgos.pageRank(s)
    SummaryAlgos.pageRank(HierSummary.identity(4, Iterator((0, 1), (1, 2)))).zip(rank)
      .foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
    assert(math.abs(rank.sum - 1.0) < 1e-9 && rank(3) < rank(0))

    val empty = HierSummary(0, Array.empty, Array.empty, Nil, Nil)
    assert(SummaryAlgos.pageRank(empty).isEmpty && SummaryAlgos.triangles(empty) == 0)
    intercept[IllegalArgumentException](SummaryAlgos.bfs(empty, 0))
    intercept[IllegalArgumentException](SummaryAlgos.dfs(empty, 0))
  }

  test("neighbor retrieval is fast (partial decompression, §VIII-B)") {
    val g = randomGraph(200, 600, 9)
    val s = summarize(g)
    s.neighbors(0) // build the read index
    val t0 = System.nanoTime()
    (0 until g.n).foreach(s.neighbors)
    val perCall = (System.nanoTime() - t0) / g.n
    // paper reports < 15 microseconds; allow generous slack on a cold JVM
    assert(perCall < 5000000L, s"neighbor retrieval took ${perCall}ns")
  }
}
