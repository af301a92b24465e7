package repro.perfbench

import repro.core.model.HierSummary
import repro.graph.LocalGraph
import scala.collection.mutable

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Nearest-rank quantile (q in (0, 1]). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(q * s.length).toInt - 1)))
  }

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, seconds(t0))
  }
}

/** Counts checked operations and failed checks of one run. Every check runs
  * outside the timed regions; a failure is never averaged away.
  */
final class Checks {
  var attempted = 0L
  var failed = 0L
  private val firstFailures = mutable.ArrayBuffer.empty[String]

  def expect(what: => String, ok: Boolean): Boolean = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (firstFailures.length < 20) firstFailures += what
    }
    ok
  }

  def failures: Seq[String] = firstFailures.toSeq

  /** A summary is correct iff it decompresses to the input edge set. */
  def lossless(what: String, s: HierSummary, truth: Set[(Int, Int)]): Boolean =
    expect(s"$what: decompress != input edges", s.decompress == truth)
}

/** Reference answers computed on the CSR input graph. */
object Csr {

  def neighborsMatch(g: LocalGraph, v: Int, ans: Set[Int]): Boolean = {
    val nb = g.adj(v)
    ans.size == nb.length && nb.forall(ans.contains)
  }

  def bfs(g: LocalGraph, start: Int): Map[Int, Int] = {
    val dist = Array.fill(g.n)(-1)
    dist(start) = 0
    val q = new Array[Int](g.n)
    var head = 0; var tail = 0
    q(tail) = start; tail += 1
    while (head < tail) {
      val v = q(head); head += 1
      g.adj(v).foreach { u => if (dist(u) < 0) { dist(u) = dist(v) + 1; q(tail) = u; tail += 1 } }
    }
    (0 until g.n).iterator.filter(dist(_) >= 0).map(v => v -> dist(v)).toMap
  }

  /** Same iteration as `SummaryAlgos.pageRank`, over the CSR adjacency. */
  def pageRank(g: LocalGraph, d: Double = 0.85, iters: Int = 20): Array[Double] = {
    val n = g.n
    var r = Array.fill(n)(1.0 / n)
    var it = 0
    while (it < iters) {
      val next = new Array[Double](n)
      var u = 0
      while (u < n) {
        val ns = g.adj(u)
        if (ns.nonEmpty) {
          val share = r(u) / ns.length
          ns.foreach(w => next(w) += share)
        }
        u += 1
      }
      val leaked = 1.0 - d * next.sum
      r = next.map(x => d * x + leaked / n)
      it += 1
    }
    r
  }

  def triangles(g: LocalGraph): Long = {
    var t = 0L
    var v = 0
    while (v < g.n) {
      g.adj(v).foreach { u =>
        if (u > v) g.adj(u).foreach(w => if (w > u && g.hasEdge(v, w)) t += 1)
      }
      v += 1
    }
    t
  }

  def maxAbsDiff(a: Array[Double], b: Array[Double]): Double =
    if (a.length != b.length) Double.PositiveInfinity
    else a.indices.iterator.map(i => math.abs(a(i) - b(i))).foldLeft(0.0)(math.max)
}
