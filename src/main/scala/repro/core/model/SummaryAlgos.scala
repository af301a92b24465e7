package repro.core.model

import scala.collection.mutable

/** Graph algorithms running *directly on a hierarchical summary* via partial
  * decompression (paper §VIII-C, Algorithms 5 and 6): the input graph is only
  * accessed through `HierSummary.neighborArray` (the array behind
  * `neighbors`, in ascending order), never fully decompressed.
  */
object SummaryAlgos {

  /** Depth-first search (Algorithm 5); returns visit order from `start`:
    * a vertex, then each of its unvisited neighbors in ascending order with
    * everything reachable from it. An explicit stack of neighbor iterators
    * keeps deep graphs (a long path) off the JVM call stack.
    */
  def dfs(s: HierSummary, start: Int): Seq[Int] = {
    val visited = mutable.LinkedHashSet(start)
    val stack = mutable.Stack(s.neighborArray(start).iterator)
    while (stack.nonEmpty) {
      val it = stack.top
      if (!it.hasNext) stack.pop()
      else {
        val u = it.next()
        if (visited.add(u)) stack.push(s.neighborArray(u).iterator)
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
      s.neighborArray(v).foreach { u =>
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
    val nbrs = Array.tabulate(n)(s.neighborArray)
    var it = 0
    while (it < iters) {
      val next = new Array[Double](n)
      var u = 0
      while (u < n) {
        val ns = nbrs(u)
        if (ns.nonEmpty) {
          val share = r(u) / ns.length
          var i = 0
          while (i < ns.length) { next(ns(i)) += share; i += 1 }
        }
        u += 1
      }
      val leaked = 1.0 - d * next.sum
      r = next.map(x => d * x + leaked / n)
      it += 1
    }
    r
  }

  /** Triangle count through neighbor retrieval only: each triangle
    * v < u < w once, w found in u's sorted neighbors by binary search.
    */
  def triangles(s: HierSummary): Long = {
    val nbrs = Array.tabulate(s.nSub)(s.neighborArray)
    var t = 0L
    var v = 0
    while (v < nbrs.length) {
      val nv = nbrs(v)
      var i = 0
      while (i < nv.length) {
        val u = nv(i)
        if (u > v) {
          val nu = nbrs(u)
          var j = i + 1
          while (j < nv.length) {
            if (java.util.Arrays.binarySearch(nu, nv(j)) >= 0) t += 1
            j += 1
          }
        }
        i += 1
      }
      v += 1
    }
    t
  }
}
