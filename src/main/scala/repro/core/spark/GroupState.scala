package repro.core.spark

import repro.core.encode.Enc
import repro.core.local.{MergeEngine, MergeSubstrate, SummaryState}
import scala.collection.mutable
import scala.util.Random

/** Serializable snapshot of everything one candidate set needs to run the
  * merging step on an executor: the set's roots, all pair encodings
  * incident to them (whose keys are the roots' adjacency, see
  * [[MergeSubstrate.pairs]]), and the direct children of the set's roots
  * and of their neighbor roots (for Case 1 and Case 2 panels).
  */
final case class GroupTask(
    nSub: Int,
    idBase: Int,                                 // temp id range for in-task merges
    roots: Seq[RootInfo],
    children: Map[Int, Seq[Int]],                // set root or neighbor root -> direct children
    pairEncs: Seq[(Int, Int, Seq[Enc])],         // (rootA-in-set, otherRoot, edges)
    theta: Double,
    heightBound: Int,
    rngSeed: Long,
)

final case class RootInfo(id: Int, famSize: Int, height: Int, internalEdges: Seq[Enc])

object GroupTask {

  /** Snapshot candidate set `rootIds` of the driver's state. */
  def of(st: SummaryState, rootIds: Seq[Int],
         theta: Double, heightBound: Int, rngSeed: Long): GroupTask = {
    val inSet = rootIds.toSet
    val children = mutable.HashMap.empty[Int, Seq[Int]]
    val pairEncs = mutable.ArrayBuffer.empty[(Int, Int, Seq[Enc])]
    rootIds.foreach { a =>
      children(a) = st.childrenOf(a)
      st.pairs(a).foreach { case (c, buf) =>
        val foreign = !inSet.contains(c)
        // take in-set pairs once (from the smaller id), foreign pairs always
        if (foreign || a < c) pairEncs += ((a, c, buf.toSeq))
        // a neighbor root adjacent to several set roots is snapshot once
        if (foreign) children.getOrElseUpdate(c, st.childrenOf(c))
      }
    }
    val roots = rootIds.map(r => RootInfo(r, st.famSize(r), st.heightOf(r), st.internal(r).toSeq))
    GroupTask(st.nSub, st.nSupers, roots, children.toMap, pairEncs.toSeq, theta, heightBound, rngSeed)
  }
}

/** Executor-side [[MergeSubstrate]] reconstructed from a [[GroupTask]], with
  * the hierarchy in maps. Neighbor (foreign) roots get stub entries in
  * `pairs` so the shared [[MergeEngine]] can update back-references. Only the
  * set's roots, and the roots merged from them, have a `famSize` entry, so
  * they are the only roots here ([[MergeSubstrate.isRoot]]) and the only ones
  * ever merged. [[newSuper]] records every merge in `merges`, the list
  * [[GroupState.run]] returns for the driver to replay. Every id the engine
  * asks about is one of these roots, a merger of them or a neighbor root, so
  * the hierarchy lookups are plain: a missing id fails loudly.
  */
final class GroupState(task: GroupTask) extends MergeSubstrate(task.nSub) {
  /** Merged pairs in commit order; the k-th allocated temp id `idBase + k`. */
  val merges = mutable.ArrayBuffer.empty[(Int, Int)]

  private val childrenMap = mutable.HashMap.from(task.children)
  private val heightMap = mutable.HashMap.from(task.roots.iterator.map(r => r.id -> r.height))

  task.roots.foreach(r => addRoot(r.id, r.famSize, r.internalEdges))
  task.pairEncs.foreach { case (a, c, es) => link(a, c, es) }

  def childrenOf(x: Int): Seq[Int] = childrenMap(x)
  def heightOf(x: Int): Int = heightMap(x)

  def newSuper(a: Int, b: Int): Int = {
    val m = task.idBase + merges.length
    merges += ((a, b))
    childrenMap(m) = Seq(a, b)
    heightMap(m) = math.max(heightOf(a), heightOf(b)) + 1
    m
  }
}

object GroupState {

  /** Run Algorithm 2 for one task; returns the merged pairs in commit order.
    * The k-th creates temp id `idBase + k`; the driver replays them against
    * the global state, mapping temp ids to real ids as it goes.
    */
  def run(task: GroupTask): Seq[(Int, Int)] = {
    val gs = new GroupState(task)
    new MergeEngine(gs).processGroup(task.roots.map(_.id), task.theta,
      new Random(task.rngSeed), task.heightBound)
    gs.merges.toSeq
  }
}
