package repro.core.local

import scala.collection.mutable
import scala.util.Random

/** Candidate set generation via min-hashing (paper §III-B2, as in SWEG).
  *
  * A shingle value is computed per subnode (min hash over the closed
  * neighborhood) and per root (min over its subnodes). Roots sharing a
  * shingle are within distance 2, the only pairs whose merger can reduce
  * cost (Lemma 1). Oversized buckets are re-divided with fresh hash seeds
  * up to [[MaxRefineLevels]] times, then split randomly to `maxSize` roots.
  */
object CandidateGen {

  /** splitmix64 — cheap, deterministic, well-mixed. */
  def mix(seed: Long, x: Long): Long = {
    var z = x + seed * 0x9E3779B97F4A7C15L + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** The paper's candidate-set size cap (§III-B2). */
  val MaxGroupSize = 500
  val MaxRefineLevels = 10

  /** Shingle F(root) at one refinement level. */
  def rootShingles(st: SummaryState, seed: Long, level: Int): mutable.HashMap[Int, Long] =
    rootShinglesOf(st.g, st.find, seed, level)

  /** Generic variant over any subnode -> group-representative mapping
    * (reused by the SWEG baseline and the Spark candidate generator).
    */
  def rootShinglesOf(g: repro.graph.LocalGraph, find: Int => Int,
                     seed: Long, level: Int): mutable.HashMap[Int, Long] = {
    val s = seed + level * 1000003L
    val f = Array.tabulate(g.n) { v =>
      var m = mix(s, v.toLong)
      val nb = g.adj(v)
      var i = 0
      while (i < nb.length) { val h = mix(s, nb(i).toLong); if (h < m) m = h; i += 1 }
      m
    }
    val out = mutable.HashMap.empty[Int, Long]
    var v = 0
    while (v < g.n) {
      val r = find(v)
      val cur = out.getOrElse(r, Long.MaxValue)
      if (f(v) < cur) out(r) = f(v)
      v += 1
    }
    out
  }

  /** Partition current roots into candidate sets of size >= 2. */
  def groups(st: SummaryState, seed: Long, maxSize: Int = MaxGroupSize): Seq[Seq[Int]] =
    groupsOf(st.g, st.find, seed, maxSize)

  /** Generic grouping over any subnode -> representative mapping. */
  def groupsOf(g: repro.graph.LocalGraph, find: Int => Int,
               seed: Long, maxSize: Int = MaxGroupSize): Seq[Seq[Int]] = {
    val shingleCache = mutable.HashMap.empty[Int, mutable.HashMap[Int, Long]]
    def shingle(level: Int): mutable.HashMap[Int, Long] =
      shingleCache.getOrElseUpdate(level, rootShinglesOf(g, find, seed, level))

    val out = mutable.ArrayBuffer.empty[Seq[Int]]
    val rng = new Random(seed)

    def emit(roots: Seq[Int]): Unit = if (roots.lengthCompare(2) >= 0) out += roots

    def split(roots: Seq[Int], level: Int): Unit = {
      if (roots.lengthCompare(maxSize) <= 0) emit(roots)
      else if (level >= MaxRefineLevels) {
        rng.shuffle(roots).grouped(maxSize).foreach(emit)
      } else {
        val f = shingle(level)
        roots.groupBy(f).valuesIterator
          .foreach { sub =>
            if (sub.lengthCompare(roots.length) == 0) split(sub, MaxRefineLevels) // no progress
            else split(sub, level + 1)
          }
      }
    }

    val level0 = shingle(0)
    level0.keysIterator.toSeq.groupBy(level0(_)).valuesIterator.foreach(split(_, 1))
    out.toSeq
  }
}
