package repro.core.local

import repro.core.encode.Enc
import repro.graph.LocalGraph
import scala.collection.mutable

/** Mutable working state of SLUGGER's merge phase.
  *
  * Supernode ids: 0..nSub-1 are singleton leaves; every merge appends a new
  * id. During the merge phase the hierarchy is a binary forest (each merge
  * creates a parent with exactly two children); pruning may later splice
  * children upward.
  *
  * Edges are stored with provenance so panels can be reassembled cheaply:
  *  - `internal(root)`  — p/n-edges with both endpoints inside the root's
  *    family (placed by Case 1 rewrites at any depth),
  *  - `pairs(rootA)(rootB)` — p/n-edges between the two families. The buffer
  *    is shared by both entries, so membership updates are O(1). Its keys
  *    are the roots adjacent to rootA's family (see [[MergeSubstrate.pairs]]).
  *
  * `find(x)` is the current root of the tree containing supernode x (and of
  * subnode x, since singletons start as their own roots); candidate
  * generation uses it to lift subnodes to roots.
  */
final class SummaryState(val g: LocalGraph) extends MergeSubstrate {
  val nSub: Int = g.n

  // ------------------------------------------------------- per-super arrays
  private val parentB = mutable.ArrayBuffer.empty[Int] // hierarchy parent (H)
  private val child1B = mutable.ArrayBuffer.empty[Int]
  private val child2B = mutable.ArrayBuffer.empty[Int]
  private val heightB = mutable.ArrayBuffer.empty[Int]

  // --------------------------------------------------------- per-root state
  val famSize  = mutable.HashMap.empty[Int, Int] // #supernodes in the tree
  val internal = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Enc]]
  val pairs    = mutable.HashMap.empty[Int, mutable.HashMap[Int, mutable.ArrayBuffer[Enc]]]

  // ------------------------------------------------------------------- init
  (0 until nSub).foreach { u =>
    parentB += -1; child1B += -1; child2B += -1; heightB += 0
    famSize(u) = 1
    internal(u) = mutable.ArrayBuffer.empty
    pairs(u) = mutable.HashMap.empty
  }
  g.edges.foreach { case (u, v) =>
    val buf = mutable.ArrayBuffer(Enc(u, v, +1))
    pairs(u)(v) = buf; pairs(v)(u) = buf
  }

  def nSupers: Int = parentB.length
  def parentOf(x: Int): Int = parentB(x)
  def heightOf(x: Int): Int = heightB(x)
  def isLeafSuper(x: Int): Boolean = x < nSub
  def childrenOf(x: Int): Seq[Int] =
    if (child1B(x) < 0) Nil else Seq(child1B(x), child2B(x))

  /** Current root of the tree containing super/subnode x. */
  def find(x: Int): Int = {
    var r = x
    while (parentB(r) >= 0) r = parentB(r)
    r
  }

  /** Allocate the merged supernode for roots a and b (caller wires state). */
  def newSuper(a: Int, b: Int): Int = {
    val m = parentB.length
    parentB += -1; child1B += a; child2B += b
    heightB += math.max(heightB(a), heightB(b)) + 1
    parentB(a) = m; parentB(b) = m
    m
  }

  /** All current p/n edges, each exactly once. */
  def allEdges: Iterator[Enc] = {
    val own = pairs.iterator.flatMap { case (a, m) =>
      m.iterator.collect { case (c, buf) if a < c => buf }
    }
    internal.valuesIterator.flatMap(_.iterator) ++ own.flatten
  }
}
