package repro.core.model

import scala.collection.mutable

/** Graph algorithms running *directly on a hierarchical summary* via partial
  * decompression (paper §VIII-C, Algorithms 5 and 6): the input graph is only
  * accessed through `HierSummary.neighbors`, never fully decompressed.
  */
object SummaryAlgos {

  /** Depth-first search (Algorithm 5); returns visit order from `start`:
    * a vertex, then each of its unvisited neighbors in ascending order with
    * everything reachable from it. An explicit stack of neighbor iterators
    * keeps deep graphs (a long path) off the JVM call stack.
    */
  def dfs(s: HierSummary, start: Int): Seq[Int] = {
    val visited = mutable.LinkedHashSet(start)
    val stack = mutable.Stack(s.neighbors(start).toSeq.sorted.iterator)
    while (stack.nonEmpty) {
      val it = stack.top
      if (!it.hasNext) stack.pop()
      else {
        val u = it.next()
        if (visited.add(u)) stack.push(s.neighbors(u).toSeq.sorted.iterator)
      }
    }
    visited.toSeq
  }

  /** Breadth-first search; returns distance map from `start`. */
  def bfs(s: HierSummary, start: Int): Map[Int, Int] = {
    val dist = mutable.HashMap(start -> 0)
    val q = mutable.ArrayDeque(start)
    while (q.nonEmpty) {
      val v = q.removeHead()
      s.neighbors(v).foreach { u =>
        if (!dist.contains(u)) { dist(u) = dist(v) + 1; q.append(u) }
      }
    }
    dist.toMap
  }

  /** PageRank's damping factor and iteration count. */
  val d = 0.85
  val iters = 20

  /** PageRank with uniform teleport (Algorithm 6). */
  def pageRank(s: HierSummary): Array[Double] = {
    val n = s.nSub
    var r = Array.fill(n)(1.0 / n)
    val nbrs = Array.tabulate(n)(v => s.neighbors(v).toArray)
    var it = 0
    while (it < iters) {
      val next = new Array[Double](n)
      var u = 0
      while (u < n) {
        val ns = nbrs(u)
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

  /** Triangle count through neighbor retrieval only. */
  def triangles(s: HierSummary): Long = {
    var t = 0L
    (0 until s.nSub).foreach { v =>
      val nv = s.neighbors(v).filter(_ > v)
      nv.foreach { u =>
        val nu = s.neighbors(u)
        t += nv.count(w => w > u && nu.contains(w))
      }
    }
    t
  }
}
