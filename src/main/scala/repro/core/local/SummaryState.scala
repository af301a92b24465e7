package repro.core.local

import repro.core.encode.Enc
import repro.graph.LocalGraph
import scala.collection.mutable

/** Mutable working state of SLUGGER's merge phase: the [[MergeSubstrate]]
  * stores over the whole graph, with the hierarchy in dense arrays.
  *
  * Supernode ids: 0..nSub-1 are singleton leaves; every merge appends a new
  * id. During the merge phase the hierarchy is a binary forest (each merge
  * creates a parent with exactly two children); pruning may later splice
  * children upward.
  *
  * `find(x)` is the current root of the tree containing supernode x (and of
  * subnode x, since singletons start as their own roots); candidate
  * generation uses it to lift subnodes to roots.
  */
final class SummaryState(val g: LocalGraph) extends MergeSubstrate(g.n) {
  private val parentB = mutable.ArrayBuffer.empty[Int] // hierarchy parent (H)
  private val child1B = mutable.ArrayBuffer.empty[Int]
  private val child2B = mutable.ArrayBuffer.empty[Int]
  private val heightB = mutable.ArrayBuffer.empty[Int]

  (0 until nSub).foreach { u =>
    parentB += -1; child1B += -1; child2B += -1; heightB += 0
    addRoot(u, 1, Nil)
  }
  g.edges.foreach { case (u, v) => link(u, v, Seq(Enc(u, v, +1))) }

  def nSupers: Int = parentB.length
  def parentOf(x: Int): Int = parentB(x)
  def heightOf(x: Int): Int = heightB(x)
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
}
