package repro.core.model

import java.util.Arrays
import scala.collection.immutable.AbstractSet

/** An immutable set of ints backed by a strictly ascending array: `contains`
  * is a binary search and iteration runs in ascending order. Equality and
  * hash code are those of every other `Set[Int]` with the same elements.
  */
final class SortedIntSet private (elems: Array[Int]) extends AbstractSet[Int] {

  override def size: Int = elems.length
  override def knownSize: Int = elems.length
  override def isEmpty: Boolean = elems.length == 0

  def contains(x: Int): Boolean = Arrays.binarySearch(elems, x) >= 0

  def iterator: Iterator[Int] = elems.iterator

  override def foreach[U](f: Int => U): Unit = {
    var i = 0
    while (i < elems.length) { f(elems(i)); i += 1 }
  }

  def incl(x: Int): SortedIntSet = {
    val i = Arrays.binarySearch(elems, x)
    if (i >= 0) this
    else {
      val at = -i - 1
      val a = new Array[Int](elems.length + 1)
      System.arraycopy(elems, 0, a, 0, at)
      a(at) = x
      System.arraycopy(elems, at, a, at + 1, elems.length - at)
      new SortedIntSet(a)
    }
  }

  def excl(x: Int): SortedIntSet = {
    val at = Arrays.binarySearch(elems, x)
    if (at < 0) this
    else {
      val a = new Array[Int](elems.length - 1)
      System.arraycopy(elems, 0, a, 0, at)
      System.arraycopy(elems, at + 1, a, at, a.length - at)
      new SortedIntSet(a)
    }
  }

  override protected[this] def className: String = "SortedIntSet"
}

object SortedIntSet {

  /** The set of `a`'s elements; `a` must be strictly ascending and is
    * neither copied nor changed afterwards.
    */
  private[model] def wrap(a: Array[Int]): SortedIntSet = new SortedIntSet(a)
}
