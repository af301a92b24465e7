package repro.core.local

import repro.core.encode.Enc
import scala.collection.mutable

/** State surface required by [[MergeEngine]].
  *
  * Implemented by the full [[SummaryState]] (local mode) and by
  * [[repro.core.spark.GroupState]] (executor-side view of one candidate set
  * in the distributed mode). Both run the same `MergeEngine.processGroup`;
  * the executor-side view records the pairs passed to [[newSuper]] as the
  * merge decisions the driver replays.
  */
trait MergeSubstrate {
  def famSize: mutable.HashMap[Int, Int]
  def internal: mutable.HashMap[Int, mutable.ArrayBuffer[Enc]]

  /** `pairs(a)(c)`: the p/n-edges between the families of roots a and c,
    * one buffer shared by both entries. Entries start as the graph's edges
    * and a merge unions the merged roots' keys; a subedge between the two
    * families keeps the buffer non-empty. So `pairs(a).keySet` is exactly
    * the set of roots that a's family has a subedge to.
    */
  def pairs: mutable.HashMap[Int, mutable.HashMap[Int, mutable.ArrayBuffer[Enc]]]

  /** `famSize` has one entry per root that may be merged: every live root
    * of the local state, the group's roots (and their mergers) on an executor.
    */
  def isRoot(x: Int): Boolean = famSize.contains(x)
  def isLeafSuper(x: Int): Boolean
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
}
