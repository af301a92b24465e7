package repro.perfbench

import repro.core.model.{HierSummary, SummaryAlgos}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** The read path on a finished summary (paper §VIII): partial-decompression
  * neighbor queries and the `SummaryAlgos` graph algorithms. Each call is
  * timed alone, then checked against the CSR answer outside its timing.
  *
  * Callers measure in slices between other work, so that samples span a
  * whole run rather than one stretch of it.
  */
final class ReadPath(s: HierSummary, g: LocalGraph, rng: Random, checks: Checks) {
  private lazy val csrRank = Csr.pageRank(g)
  private lazy val csrTriangles = Csr.triangles(g)
  val neighborS = mutable.ArrayBuffer.empty[Double]
  val bfsS = mutable.ArrayBuffer.empty[Double]
  val rankS = mutable.ArrayBuffer.empty[Double]
  val triangleS = mutable.ArrayBuffer.empty[Double]

  /** Run `body` until `budgetS` has passed and at least `min` times. */
  private def repeat(out: mutable.ArrayBuffer[Double], budgetS: Double, min: Int)(body: => Double): Unit = {
    val t0 = System.nanoTime()
    var k = 0
    while (k < min || Stats.seconds(t0) < budgetS) { out += body; k += 1 }
  }

  /** Neighbor queries from random vertices for `budgetS` seconds. */
  def queries(budgetS: Double): Unit =
    repeat(neighborS, budgetS, 100) {
      val v = rng.nextInt(g.n)
      val (ans, dt) = Stats.timed(s.neighbors(v))
      checks.expect(s"neighbors($v) differs from the CSR", Csr.neighborsMatch(g, v, ans))
      dt
    }

  /** BFS from random sources, PageRank and triangle counting, a third of
    * `budgetS` seconds each.
    */
  def algorithms(budgetS: Double): Unit = {
    val q = budgetS / 3
    repeat(bfsS, q, 1) {
      val src = rng.nextInt(g.n)
      val (dist, dt) = Stats.timed(SummaryAlgos.bfs(s, src))
      checks.expect(s"bfs($src) distances differ from the CSR", dist == Csr.bfs(g, src))
      dt
    }
    repeat(rankS, q, 1) {
      val (rank, dt) = Stats.timed(SummaryAlgos.pageRank(s))
      checks.expect("pageRank differs from the CSR by more than 1e-9",
        Csr.maxAbsDiff(rank, csrRank) <= 1e-9)
      dt
    }
    repeat(triangleS, q, 1) {
      val (t, dt) = Stats.timed(SummaryAlgos.triangles(s))
      checks.expect(s"triangles = $t, CSR has $csrTriangles", t == csrTriangles)
      dt
    }
  }

  /** Drops the samples: after warm-up calls, and before measuring the heap. */
  def clear(): Unit = Seq(neighborS, bfsS, rankS, triangleS).foreach(_.clearAndShrink())
}
