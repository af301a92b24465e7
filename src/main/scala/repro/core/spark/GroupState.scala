package repro.core.spark

import repro.core.encode.Enc
import repro.core.local.{MergeEngine, MergeSubstrate}
import scala.collection.mutable
import scala.util.Random

/** Serializable snapshot of everything one candidate set needs to run the
  * merging step on an executor: the group's roots (hierarchy tops, internal
  * encodings), all pair encodings incident to them (whose keys are the
  * roots' adjacency, see [[MergeSubstrate.pairs]]), and the 1-level
  * families of neighbor roots (for Case 2 panels).
  */
final case class GroupTask(
    groupKey: Long,                              // index of the set in its iteration's candidate sets
    nSub: Int,
    idBase: Int,                                 // temp id range for in-task merges
    roots: Seq[RootInfo],
    neighborChildren: Map[Int, Seq[Int]],        // foreign root -> direct children
    pairEncs: Seq[(Int, Int, Seq[Enc])],         // (rootA-in-group, otherRoot, edges)
    theta: Double,
    heightBound: Int,
    rngSeed: Long,
)

final case class RootInfo(id: Int, famSize: Int, height: Int,
                          children: Seq[Int], internalEdges: Seq[Enc])

/** The merge decisions an executor made for one group, in order. The k-th
  * merge creates temp id `idBase + k`; the driver replays them against the
  * global state, mapping temp ids to real ids as it goes.
  */
final case class GroupDecisions(groupKey: Long, merges: Seq[(Int, Int)])

/** Executor-side [[MergeSubstrate]] reconstructed from a [[GroupTask]].
  *
  * Neighbor (foreign) roots get stub entries so the shared [[MergeEngine]]
  * can update back-references; only group roots are ever merged here.
  * [[newSuper]] records every merge in `merges`, the decision list replayed
  * on the driver.
  */
final class GroupState(task: GroupTask) extends MergeSubstrate {
  val famSize  = mutable.HashMap.empty[Int, Int]
  val internal = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Enc]]
  val pairs    = mutable.HashMap.empty[Int, mutable.HashMap[Int, mutable.ArrayBuffer[Enc]]]

  /** Merged pairs in commit order; the k-th allocated temp id `idBase + k`. */
  val merges = mutable.ArrayBuffer.empty[(Int, Int)]

  private val childrenMap = mutable.HashMap.empty[Int, Seq[Int]]
  private val heightMap = mutable.HashMap.empty[Int, Int]
  private val parentMap = mutable.HashMap.empty[Int, Int] // merged ids only

  task.roots.foreach { r =>
    famSize(r.id) = r.famSize
    internal(r.id) = mutable.ArrayBuffer.from(r.internalEdges)
    childrenMap(r.id) = r.children
    heightMap(r.id) = r.height
    pairs(r.id) = mutable.HashMap.empty
  }
  task.neighborChildren.foreach { case (c, ch) => childrenMap.getOrElseUpdate(c, ch) }
  task.pairEncs.foreach { case (a, c, es) =>
    val buf = mutable.ArrayBuffer.from(es)
    pairs(a)(c) = buf
    pairs.getOrElseUpdate(c, mutable.HashMap.empty)(a) = buf
  }

  def isRoot(x: Int): Boolean = !parentMap.contains(x)
  def isLeafSuper(x: Int): Boolean = x < task.nSub
  def childrenOf(x: Int): Seq[Int] = childrenMap.getOrElse(x, Nil)
  def heightOf(x: Int): Int = heightMap.getOrElse(x, 0)

  def find(x: Int): Int = {
    var r = x
    while (parentMap.contains(r)) r = parentMap(r)
    r
  }

  def newSuper(a: Int, b: Int): Int = {
    val m = task.idBase + merges.length
    merges += ((a, b))
    childrenMap(m) = Seq(a, b)
    heightMap(m) = math.max(heightOf(a), heightOf(b)) + 1
    parentMap(a) = m; parentMap(b) = m
    m
  }
}

object GroupState {

  /** Run Algorithm 2 for one task, recording the merge decisions. */
  def run(task: GroupTask): GroupDecisions = {
    val gs = new GroupState(task)
    new MergeEngine(gs).processGroup(task.roots.map(_.id), task.theta,
      new Random(task.rngSeed), task.heightBound)
    GroupDecisions(task.groupKey, gs.merges.toSeq)
  }
}
