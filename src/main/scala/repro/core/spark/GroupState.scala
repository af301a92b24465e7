package repro.core.spark

import repro.core.encode.Enc
import repro.core.local.{MergeEngine, MergeSubstrate, SummaryState}
import scala.collection.mutable
import scala.reflect.ClassTag
import scala.util.Random

/** Serializable snapshot of everything one candidate set needs to run the
  * merging step on an executor: the set's roots, all pair encodings
  * incident to them (whose keys are the roots' adjacency, see
  * [[MergeSubstrate.pairs]]), and the direct children of the set's roots
  * and of their neighbor roots (for Case 1 and Case 2 panels).
  *
  * It is all primitive arrays, so Java serialization writes a few flat
  * blocks per task instead of nested collections of boxed values. Each p/n
  * edge is one `Long` ([[GroupTask.packEdge]]). A CSR `xAt` array holds
  * one offset per row plus the end: row i is `x(xAt(i) until xAt(i + 1))`.
  * [[GroupTask.of]] writes the arrays and [[GroupState]] reads them, both
  * in the driver's orders (roots, pair buffers, edges within a buffer), so
  * the executor's state iterates as the driver's would.
  *
  * @param roots         the candidate set, in `CandidateGen`'s order
  * @param famSizes      `famSize` of `roots(i)`, one per root record
  * @param heights       height of `roots(i)`
  * @param internalAt    CSR offsets of `internalEdges`, one row per root
  * @param internalEdges packed edges inside each root's family
  * @param nodes         the set's roots and their neighbor roots
  * @param childAt       CSR offsets of `children`, one row per node
  * @param children      direct children of each node
  * @param pairRoots     (a, c) per pair buffer, a in the set; a pair inside
  *                      the set ships once, from its smaller root
  * @param pairAt        CSR offsets of `pairEdges`, one row per pair buffer
  * @param pairEdges     packed edges of each pair buffer
  */
final case class GroupTask(
    nSub: Int,
    idBase: Int,                                 // temp id range for in-task merges
    roots: Array[Int],
    famSizes: Array[Int],
    heights: Array[Int],
    internalAt: Array[Int],
    internalEdges: Array[Long],
    nodes: Array[Int],
    childAt: Array[Int],
    children: Array[Int],
    pairRoots: Array[Int],
    pairAt: Array[Int],
    pairEdges: Array[Long],
    theta: Double,
    heightBound: Int,
    rngSeed: Long,
)

object GroupTask {

  /** Snapshot candidate set `rootIds` of the driver's state. */
  def of(st: SummaryState, rootIds: Seq[Int],
         theta: Double, heightBound: Int, rngSeed: Long): GroupTask = {
    val roots = rootIds.toArray
    val inSet = roots.toSet
    val internal = new Rows[Long]
    roots.foreach(r => internal.row(st.internal(r).iterator.map(packEdge)))
    val nodes = Array.newBuilder[Int]
    val children = new Rows[Int]
    def ship(x: Int): Unit = { nodes += x; children.row(st.childrenOf(x).iterator) }
    roots.foreach(ship)
    // a neighbor root adjacent to several set roots is snapshot once
    val neighbors = mutable.HashSet.empty[Int]
    val pairRoots = Array.newBuilder[Int]
    val pairs = new Rows[Long]
    roots.foreach { a =>
      st.pairs(a).foreach { case (c, buf) =>
        val foreign = !inSet.contains(c)
        // take in-set pairs once (from the smaller id), foreign pairs always
        if (foreign || a < c) {
          pairRoots += a; pairRoots += c
          pairs.row(buf.iterator.map(packEdge))
        }
        if (foreign && neighbors.add(c)) ship(c)
      }
    }
    GroupTask(st.nSub, st.nSupers, roots, roots.map(st.famSize), roots.map(st.heightOf),
      internal.at, internal.values, nodes.result(), children.at, children.values,
      pairRoots.result(), pairs.at, pairs.values, theta, heightBound, rngSeed)
  }

  /** A p/n edge as one `Long`: x in the high 32 bits, then y, then the sign
    * (1 for +1, 0 for -1) in the lowest bit. Ids must be non-negative.
    */
  def packEdge(e: Enc): Long = {
    require(e.x >= 0, s"GroupTask.packEdge: id ${e.x} of $e is negative")
    require(e.y >= 0, s"GroupTask.packEdge: id ${e.y} of $e is negative")
    require(e.sign == 1 || e.sign == -1, s"GroupTask.packEdge: sign ${e.sign} of $e is not +1 or -1")
    (e.x.toLong << 32) | (e.y.toLong << 1) | (if (e.sign == 1) 1L else 0L)
  }

  def unpackEdge(w: Long): Enc =
    Enc((w >>> 32).toInt, ((w & 0xFFFFFFFFL) >>> 1).toInt, if ((w & 1L) == 1L) 1 else -1)

  /** Row i of a CSR of packed edges, decoded. */
  private[spark] def edgeRow(at: Array[Int], packed: Array[Long], i: Int): Iterable[Enc] =
    (at(i) until at(i + 1)).view.map(j => unpackEdge(packed(j)))

  /** Builder of one CSR: rows appended in order. */
  private final class Rows[T: ClassTag] {
    private val offsets = Array.newBuilder[Int] += 0
    private val all = Array.newBuilder[T]
    def row(xs: Iterator[T]): Unit = { all ++= xs; offsets += all.length }
    def at: Array[Int] = offsets.result()
    def values: Array[T] = all.result()
  }
}

/** Executor-side [[MergeSubstrate]] decoded from a [[GroupTask]], with the
  * hierarchy in maps. Neighbor (foreign) roots get stub entries in `pairs`
  * so the shared [[MergeEngine]] can update back-references. Only the
  * task's root records, and the roots merged from them, have a `famSize`
  * entry, so they are the only roots here ([[MergeSubstrate.isRoot]]) and
  * the only ones ever merged. [[newSuper]] logs every merge, the list
  * [[GroupState.run]] returns for the driver to replay. Every id the engine
  * asks about is one of these roots, a merger of them or a neighbor root,
  * so the hierarchy lookups are plain: a missing id fails loudly.
  */
final class GroupState(task: GroupTask) extends MergeSubstrate(task.nSub) {
  /** Merged pairs (a, b) in commit order; the k-th allocated temp id `idBase + k`. */
  private val merged = Array.newBuilder[Int]

  // LongMap keys the ids without boxing. Children are Lists, as in
  // SummaryState: Case 2 panels prepend to them and concatenate them.
  private val childrenMap = mutable.LongMap.empty[List[Int]]
  private val heightMap = mutable.LongMap.empty[Int]

  task.famSizes.indices.foreach { i =>
    addRoot(task.roots(i), task.famSizes(i), GroupTask.edgeRow(task.internalAt, task.internalEdges, i))
    heightMap(task.roots(i)) = task.heights(i)
  }
  task.nodes.indices.foreach { i =>
    childrenMap(task.nodes(i)) = List.from(task.children.slice(task.childAt(i), task.childAt(i + 1)))
  }
  (0 until task.pairRoots.length / 2).foreach { i =>
    link(task.pairRoots(2 * i), task.pairRoots(2 * i + 1), GroupTask.edgeRow(task.pairAt, task.pairEdges, i))
  }

  def childrenOf(x: Int): Seq[Int] = childrenMap(x)
  def heightOf(x: Int): Int = heightMap(x)

  def newSuper(a: Int, b: Int): Int = {
    val m = task.idBase + merged.length / 2
    merged += a; merged += b
    childrenMap(m) = List(a, b)
    heightMap(m) = math.max(heightOf(a), heightOf(b)) + 1
    m
  }
}

object GroupState {

  /** Run Algorithm 2 for one task; returns the merged pairs in commit
    * order, flat: (a, b) of the k-th merge at 2k and 2k + 1. The k-th
    * creates temp id `idBase + k`; the driver replays them against the
    * global state, mapping temp ids to real ids as it goes.
    */
  def run(task: GroupTask): Array[Int] = {
    val gs = new GroupState(task)
    new MergeEngine(gs).processGroup(task.roots.toSeq, task.theta,
      new Random(task.rngSeed), task.heightBound)
    gs.merged.result()
  }
}
