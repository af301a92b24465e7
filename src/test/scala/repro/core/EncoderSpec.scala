package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.encode.{MinCover, Panel, PanelShape}

/** Unit tests of the panel construction and the memoized min-cover search. */
class EncoderSpec extends AnyFunSuite {

  // ---- Panel structure ------------------------------------------------------

  test("Case 1 panel of two leaves: symbols M,A,B; blocks A,B") {
    val p = Panel.internal(Nil, Nil, aId = 10, bId = 11, _ => true)
    assert(p.shape.nSym == 3)
    assert(p.shape.blocks.length == 2)
    assert(p.shape.crossPairs.length == 1)
    assert(p.shape.sumBlocks.isEmpty) // both blocks are singletons
  }

  test("Case 1 panel of two internal roots has 7 symbols and 4 blocks") {
    val p = Panel.internal(Seq(1, 2), Seq(3, 4), aId = 20, bId = 21, _ < 5)
    assert(p.shape.nSym == 7)
    assert(p.shape.blocks.length == 4)
    assert(p.shape.crossPairs.length == 6)
  }

  test("Case 1 slots never pair nested symbols") {
    val p = Panel.internal(Seq(1, 2), Seq(3, 4), 20, 21, _ < 5)
    // no slot may pair M (sym 0) with anything, nor A with its own children
    p.shape.slots.foreach { case (a, b) =>
      assert(!(a == 0 ^ b == 0), s"M in non-loop slot ($a,$b)")
      assert(!(a == 1 && (b == 3 || b == 4)), s"nested slot ($a,$b)")
    }
  }

  test("Case 2 panel restricts slots to family-crossing pairs") {
    val p = Panel.cross(Seq(1, 2), Nil, 20, 21, cId = 30, cChildren = Seq(5, 6))
    p.shape.slots.foreach { case (a, b) => assert(p.shape.symSide(a) != p.shape.symSide(b)) }
    assert(p.shape.crossPairs.nonEmpty)
    assert(p.shape.sumBlocks.isEmpty)
  }

  test("Case 2 panel of max shape has 7x3 slots") {
    val p = Panel.cross(Seq(1, 2), Seq(3, 4), 20, 21, 30, Seq(5, 6))
    assert(p.shape.slots.length == 7 * 3)
  }

  test("coverage: loop at M covers every constraint") {
    val p = Panel.internal(Seq(1, 2), Seq(3, 4), 20, 21, _ => false)
    val full = (1L << p.shape.nCons) - 1
    assert(p.shape.coverOf(0, 0) == full)
  }

  test("coverage: block-level edge covers exactly its pair") {
    val p = Panel.internal(Seq(1, 2), Seq(3, 4), 20, 21, _ => true)
    // blocks are symbols 3,4,5,6; find the slot (3,5): covers one constraint
    val cov = p.shape.coverOf(3, 5)
    assert(java.lang.Long.bitCount(cov) == 1)
  }

  test("symOf maps ids and reports deep ids as -1") {
    val p = Panel.internal(Seq(1, 2), Nil, 20, 21, _ < 5)
    assert(p.symOf(20) == 1 && p.symOf(21) == 2)
    assert(p.symOf(1) == 3 && p.symOf(2) == 4)
    assert(p.symOf(999) == -1)
  }

  // ---- MinCover search ------------------------------------------------------

  /** The (slot, sign) picks of signed edges between panel symbols. */
  def picksOf(shape: PanelShape, edges: (Int, Int, Int)*): List[(Int, Int)] =
    edges.map { case (sx, sy, sign) =>
      val s = shape.slotOf(sx, sy)
      assert(s >= 0, s"($sx, $sy) is not a slot of shape ${shape.code}")
      (s, sign)
    }.toList

  /** The net each constraint of `shape` gets from `picks`. */
  def netOf(shape: PanelShape, picks: List[(Int, Int)]): Array[Int] =
    Array.tabulate(shape.nCons) { c =>
      picks.collect { case (s, sign) if (shape.slotCovers(s) >> c & 1L) == 1L => sign }.sum
    }

  /** Case 1 (A with children 3 and 4, leaf B = 2, singleton blocks):
    * constraints (a1,a2), (a1,B), (a2,B).
    */
  val aPair: PanelShape = Panel.internal(Seq(1, 2), Nil, 20, 21, _ => true).shape

  /** Case 2 (A with children 3 and 4, leaf B = 2; C = 5 with children 6 and 7). */
  val crossPair: PanelShape = Panel.cross(Seq(1, 2), Nil, 20, 21, 30, Seq(5, 6)).shape

  test("solve picks the covering slot when all targets are 1") {
    // leaves A, B against C's children: the edge (M, C) covers all four pairs
    val shape = Panel.cross(Nil, Nil, 20, 21, 30, Seq(5, 6)).shape
    val reproduce = picksOf(shape, (1, 4, 1), (1, 5, 1), (2, 4, 1), (2, 5, 1))
    val s = MinCover.solve(shape, netOf(shape, reproduce), reproduce)
    assert(s == picksOf(shape, (0, 3, 1)))
  }

  test("solve uses signed compensation when profitable") {
    // A and B each with two leaf children, every pair linked but (a1, b1):
    // the loop at M plus an n-edge at (a1, b1) beats five p-edges
    val shape = Panel.internal(Seq(1, 2), Seq(3, 4), 20, 21, _ => true).shape
    val reproduce = picksOf(shape, (3, 4, 1), (5, 6, 1), (3, 6, 1), (4, 5, 1), (4, 6, 1))
    val s = MinCover.solve(shape, netOf(shape, reproduce), reproduce)
    assert(s.toSet == picksOf(shape, (0, 0, 1), (3, 5, -1)).toSet)
  }

  test("solve returns zero-cost solution for zero targets") {
    // (A, C) and n-edges at both of A's children cancel out
    val shape = Panel.cross(Seq(1, 2), Nil, 20, 21, 30, Nil).shape
    val reproduce = picksOf(shape, (1, 5, 1), (3, 5, -1), (4, 5, -1))
    assert(netOf(shape, reproduce).forall(_ == 0))
    assert(MinCover.solve(shape, netOf(shape, reproduce), reproduce).isEmpty)
  }

  test("memoization returns identical solutions for identical keys") {
    val reproduce = picksOf(aPair, (3, 4, 1), (2, 3, 1), (2, 4, 1))
    val before = MinCover.memoSize
    val a = MinCover.solve(aPair, netOf(aPair, reproduce), reproduce)
    val mid = MinCover.memoSize
    val b = MinCover.solve(aPair, netOf(aPair, reproduce), reproduce)
    assert(a == b && a == picksOf(aPair, (0, 0, 1)))
    // the key is new unless an earlier suite in this JVM asked for it
    assert(mid - before <= 1 && MinCover.memoSize == mid)
  }

  test("memo hit never returns more edges than the caller's own encoding") {
    // targets (a1,a2) = 1, (a1,B) = 1, (a2,B) = 0: a caller with three edges
    // gets the key's first minimum cover, the loop at M plus an n-edge at
    // (a2, B); a later caller's own two edges are just as small, so it
    // keeps them
    val three = picksOf(aPair, (1, 2, 1), (2, 4, -1), (3, 4, 1))
    val two = picksOf(aPair, (3, 4, 1), (2, 3, 1))
    val targets = netOf(aPair, three)
    assert(targets.sameElements(netOf(aPair, two)))
    assert(MinCover.solve(aPair, targets, three) == picksOf(aPair, (0, 0, 1), (2, 4, -1)))
    assert(MinCover.solve(aPair, targets, two) == two)
  }

  test("callers with different optimal encodings of one key each keep their own, in either order") {
    // a1-c1, a1-c2 and a2-c1 linked: (A, c1) + (a1, c2) or (a1, C) + (a2, c1)
    val x = picksOf(crossPair, (1, 6, 1), (3, 7, 1))
    val y = picksOf(crossPair, (3, 5, 1), (4, 6, 1))
    val targets = netOf(crossPair, x)
    assert(targets.sameElements(netOf(crossPair, y)))
    for ((first, second) <- Seq((x, y), (y, x))) {
      assert(MinCover.solve(crossPair, targets, first) == first)
      assert(MinCover.solve(crossPair, targets, second) == second)
    }
  }

  /** The 44 binary shape codes: Case 1 with nA, nB in {0, 2} and every
    * singleton mask over its blocks (36), Case 2 with nA, nB, nC in {0, 2} (8).
    */
  val binaryCodes: Seq[Int] =
    (for {
      nA <- Seq(0, 2); nB <- Seq(0, 2)
      mask <- 0 until 1 << (nA.max(1) + nB.max(1))
    } yield 1 << 20 | nA << 8 | nB << 4 | mask) ++
      (for (nA <- Seq(0, 2); nB <- Seq(0, 2); nC <- Seq(0, 2)) yield 2 << 20 | nA << 8 | nB << 4 | nC)

  /** Fewest signed edges, distinct slots, netting to each 0/1 target mask
    * that at most `k` edges reach: every subset of at most `k` slots, each
    * with either sign.
    */
  def fewestEdges(shape: PanelShape, k: Int): Map[Long, Int] = {
    val best = scala.collection.mutable.HashMap.empty[Long, Int]
    val net = new Array[Int](shape.nCons)
    def go(from: Int, used: Int): Unit = {
      if (net.forall(t => t == 0 || t == 1)) {
        val mask = net.indices.foldLeft(0L)((m, c) => m | net(c).toLong << c)
        if (best.getOrElse(mask, Int.MaxValue) > used) best(mask) = used
      }
      if (used < k) for (s <- from until shape.slots.length; sign <- Seq(1, -1)) {
        def add(d: Int): Unit = net.indices.foreach(c => if ((shape.slotCovers(s) >> c & 1L) == 1L) net(c) += d)
        add(sign); go(s + 1, used + 1); add(-sign)
      }
    }
    go(0, 0)
    best.toMap
  }

  test("every 0/1 target of every binary shape: a minimum cover of at most 5 edges") {
    assert(binaryCodes.length == 44 && binaryCodes.distinct.length == 44)
    for (code <- binaryCodes) {
      val shape = PanelShape(code)
      assert(shape.binary)
      val fewest = fewestEdges(shape, 4)
      // each constraint's own slot: a block pair's, or a block's loop
      val ownSlot = (shape.crossPairs.map { case (i, j) => shape.slotOf(shape.blocks(i), shape.blocks(j)) } ++
        shape.sumBlocks.map(b => shape.slotOf(shape.blocks(b), shape.blocks(b))))
      for (mask <- 0L until 1L << shape.nCons) {
        val targets = Array.tabulate(shape.nCons)(c => (mask >> c & 1L).toInt)
        val own = targets.indices.collect { case c if targets(c) == 1 => (ownSlot(c), 1) }.toList
        assert(netOf(shape, own).sameElements(targets), s"shape $code, targets $mask: own slots")
        val got = MinCover.solve(shape, targets, own)
        val at = s"shape $code, targets ${targets.mkString}: $got"
        assert(netOf(shape, got).sameElements(targets), at)
        assert(got.map(_._1).distinct.length == got.length, at)
        assert(got.length == fewest.getOrElse(mask, 5), at)
        assert((got == own) == (own.length == got.length), at)
      }
    }
  }

  test("solve rejects a non-binary shape and targets outside {0, 1}, naming the shape") {
    val three = Panel.internal(Seq(1, 2, 3), Nil, 20, 21, _ => true).shape
    assert(!three.binary)
    val e = intercept[IllegalArgumentException](MinCover.solve(three, new Array[Int](three.nCons), Nil))
    assert(e.getMessage.contains(s"shape ${three.code}"))
    for (bad <- Seq(-1, 2)) {
      val targets = Array(bad, 0, 0)
      val e = intercept[IllegalArgumentException](MinCover.solve(aPair, targets, Nil))
      assert(e.getMessage.contains(s"shape ${aPair.code}") && e.getMessage.contains(s"[$bad,0,0]"))
    }
  }

  test("memoized table is independent of concrete super ids (shape-keyed)") {
    // same shape, different actual ids -> one shared structure, same slot picks
    val p1 = Panel.internal(Seq(1, 2), Seq(3, 4), 20, 21, _ => true)
    val p2 = Panel.internal(Seq(101, 102), Seq(103, 104), 220, 221, _ => true)
    assert(p1.shape eq p2.shape)
    assert(Panel.cross(Seq(1, 2), Nil, 20, 21, 30, Nil).shape eq
           Panel.cross(Seq(5, 6), Nil, 40, 41, 50, Nil).shape)
  }

  test("clique pattern: all-ones targets solved by the M loop") {
    val p = Panel.internal(Seq(1, 2), Seq(3, 4), 20, 21, _ => true)
    val targets = Array.fill(p.shape.nCons)(1)
    val reproduce = p.shape.crossPairs.indices.map { k =>
      val (i, j) = p.shape.crossPairs(k)
      (p.shape.slotOf(p.shape.blocks(i), p.shape.blocks(j)), 1)
    }.toList
    val s = MinCover.solve(p.shape, targets, reproduce)
    assert(s.size == 1, s"expected single loop at M, got $s")
    assert(p.shape.slots(s.head._1) == ((0, 0)))
  }

  test("clique-with-nonsingleton-blocks: loop at M satisfies the sum constraints") {
    // non-singleton blocks add within-block sum constraints; a clique of
    // cliques has old sum 1 per block (loop at A / loop at B), and the loop
    // at M reproduces both sums and all cross pairs: cost 1.
    val p = Panel.internal(Seq(1, 2), Seq(3, 4), 20, 21, _ => false)
    val targets = Array.fill(p.shape.nCons)(1)
    val reproduce =
      p.shape.crossPairs.indices.collect {
        case k if {
          val (i, j) = p.shape.crossPairs(k)
          p.shape.slotOf(p.shape.blocks(i), p.shape.blocks(j)) >= 0
        } =>
          val (i, j) = p.shape.crossPairs(k)
          (p.shape.slotOf(p.shape.blocks(i), p.shape.blocks(j)), 1)
      }.toList ++
      p.shape.sumBlocks.map(b => (p.shape.slotOf(p.shape.blocks(b), p.shape.blocks(b)), 1)).toList
    val s = MinCover.solve(p.shape, targets, reproduce)
    assert(s.size == 1, s"picks=$s")
  }

  test("star-at-root pattern: one cross target solved by one edge") {
    val p = Panel.cross(Seq(1, 2), Seq(3, 4), 20, 21, 30, Nil)
    // all four left blocks connect fully to C -> targets all 1 -> edge (M, C)
    val targets = Array.fill(p.shape.nCons)(1)
    val reproduce = p.shape.crossPairs.indices.map { k =>
      val (i, j) = p.shape.crossPairs(k)
      (p.shape.slotOf(p.shape.blocks(i), p.shape.blocks(j)), 1)
    }.toList
    assert(MinCover.solve(p.shape, targets, reproduce).size == 1)
  }

  test("mixed cross pattern: p at parent plus n at child (Fig. 2 shape)") {
    // left blocks b0,b1 under A; b0 connected to C, b1 not: the one edge
    // (b0, C) beats (A, C) + n(b1, C)
    val p = Panel.cross(Seq(1, 2), Nil, 20, 21, 30, Nil)
    val targets = p.shape.crossPairs.map { case (i, _) => if (i == 0) 1 else 0 }
    val reproduce = List((p.shape.slotOf(p.shape.blocks(0), p.symOf(30)), 1))
    assert(MinCover.solve(p.shape, targets, reproduce) == reproduce)
  }
}
