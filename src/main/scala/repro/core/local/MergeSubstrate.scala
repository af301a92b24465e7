package repro.core.local

import repro.core.encode.Enc
import scala.collection.mutable

/** The per-root stores [[MergeEngine]] runs on, over supernode ids whose
  * first `nSub` are the singleton leaves.
  *
  * Extended by the full [[SummaryState]] (local mode) and by
  * [[repro.core.spark.GroupState]] (executor-side view of one candidate set
  * in the distributed mode), which differ only in how they store the
  * hierarchy. Both run the same `MergeEngine.processGroup`; the
  * executor-side view records the pairs passed to [[newSuper]] as the
  * merge decisions the driver replays.
  */
abstract class MergeSubstrate(val nSub: Int) {
  /** `famSize(r)`: #supernodes in root r's tree, for every root that may be
    * merged: each live root locally, the set's roots (and mergers) on an executor.
    */
  val famSize = mutable.HashMap.empty[Int, Int]
  /** `internal(r)`: p/n-edges inside r's family, placed by Case 1 rewrites. */
  val internal = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Enc]]

  /** `pairs(a)(c)`: the p/n-edges between the families of roots a and c,
    * one buffer shared by both entries. Entries start as the graph's edges
    * and a merge unions the merged roots' keys; a subedge between the two
    * families keeps the buffer non-empty. So `pairs(a).keySet` is exactly
    * the set of roots that a's family has a subedge to.
    */
  val pairs = mutable.HashMap.empty[Int, mutable.HashMap[Int, mutable.ArrayBuffer[Enc]]]

  /** Register root r with `size` supernodes and the edges `inside` it. */
  protected def addRoot(r: Int, size: Int, inside: Iterable[Enc]): Unit = {
    famSize(r) = size
    internal(r) = mutable.ArrayBuffer.from(inside)
    pairs(r) = mutable.HashMap.empty
  }

  /** Store the edges between roots a and c, one buffer under both keys. A
    * root not registered by [[addRoot]] (a neighbor root on an executor)
    * gets a stub `pairs` entry, so a merge can update its back-references.
    */
  protected def link(a: Int, c: Int, edges: Iterable[Enc]): Unit = {
    val buf = mutable.ArrayBuffer.from(edges)
    pairs(a)(c) = buf
    pairs.getOrElseUpdate(c, mutable.HashMap.empty)(a) = buf
  }

  def isRoot(x: Int): Boolean = famSize.contains(x)
  def isLeafSuper(x: Int): Boolean = x < nSub
  def childrenOf(x: Int): Seq[Int]
  def heightOf(x: Int): Int

  /** Allocate the merged supernode for roots a and b and wire hierarchy.
    * `MergeEngine.merge` calls it once per merge, with the merged pair.
    */
  def newSuper(a: Int, b: Int): Int

  /** Encoding cost attributed to root A, Eq. (6). */
  def rootCost(a: Int): Int = {
    var n = (famSize(a) - 1) + internal(a).length
    pairs(a).valuesIterator.foreach(n += _.length)
    n
  }

  /** All current p/n edges, each exactly once. */
  def allEdges: Iterator[Enc] = {
    val own = pairs.iterator.flatMap { case (a, m) =>
      m.iterator.collect { case (c, buf) if a < c => buf }
    }
    internal.valuesIterator.flatMap(_.iterator) ++ own.flatten
  }
}
