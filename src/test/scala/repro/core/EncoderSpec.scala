package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.encode.{MinCover, Panel}

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

  /** Tiny synthetic instance: 3 constraints, slots = singles and one triple. */
  val covers: Array[Long] = Array(1L, 2L, 4L, 7L)

  test("solve picks the covering slot when all targets are 1") {
    val s = MinCover.solve(9001, covers, Array(1, 1, 1),
      List((0, 1), (1, 1), (2, 1)))
    assert(s.cost == 1)
    assert(s.picks == List((3, 1)))
  }

  test("solve uses signed compensation when profitable") {
    // targets (1,1,0): either slots {0,1} or {3, 2 with sign -1}; both cost 2
    val s = MinCover.solve(9002, covers, Array(1, 1, 0), List((0, 1), (1, 1)))
    assert(s.cost == 2)
  }

  test("solve returns zero-cost solution for zero targets") {
    val s = MinCover.solve(9003, covers, Array(0, 0, 0), List((0, 1), (0, -1)))
    assert(s.cost == 0)
  }

  test("solve falls back to reproduce when targets are unreachable in cap") {
    // a target of 3 on one constraint with only 2 covering slots
    val s = MinCover.solve(9004, Array(1L, 1L), Array(3), List((0, 1), (1, 1), (0, 1)))
    assert(s.cost == 3)
    assert(s.picks.size == 3)
  }

  test("memoization returns identical solutions for identical keys") {
    val before = MinCover.memoSize
    val a = MinCover.solve(9005, covers, Array(1, 0, 1), List((0, 1), (2, 1)))
    val mid = MinCover.memoSize
    val b = MinCover.solve(9005, covers, Array(1, 0, 1), List((0, 1), (2, 1)))
    assert(a == b)
    assert(MinCover.memoSize == mid && mid == before + 1)
  }

  test("memo hit never returns more edges than the caller's own encoding") {
    // 7 constraints, one slot each, plus two extra slots on constraint 0:
    // the optimum (7 edges) exceeds MaxDepth, so the search falls back to
    // its first caller's 9-edge encoding and memoizes it
    val covers = Array.tabulate(7)(c => 1L << c) ++ Array(1L, 1L)
    val targets = Array.fill(7)(1)
    val seven = (0 until 7).map(s => (s, 1)).toList
    val nine = (7, 1) :: (8, -1) :: seven
    assert(MinCover.solve(9006, covers, targets, nine).cost == 9)
    val s = MinCover.solve(9006, covers, targets, seven)
    assert(s.cost == 7 && s.picks == seven)
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
    val s = MinCover.solve(p.shape.code, p.shape.slotCovers, targets, reproduce)
    assert(s.cost == 1, s"expected single loop at M, got ${s.picks}")
    assert(p.shape.slots(s.picks.head._1) == ((0, 0)))
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
    val s = MinCover.solve(p.shape.code, p.shape.slotCovers, targets, reproduce)
    assert(s.cost == 1, s"picks=${s.picks}")
  }

  test("star-at-root pattern: one cross target solved by one edge") {
    val p = Panel.cross(Seq(1, 2), Seq(3, 4), 20, 21, 30, Nil)
    // all four left blocks connect fully to C -> targets all 1 -> edge (M, C)
    val targets = Array.fill(p.shape.nCons)(1)
    val reproduce = p.shape.crossPairs.indices.map { k =>
      val (i, j) = p.shape.crossPairs(k)
      (p.shape.slotOf(p.shape.blocks(i), p.shape.blocks(j)), 1)
    }.toList
    val s = MinCover.solve(p.shape.code, p.shape.slotCovers, targets, reproduce)
    assert(s.cost == 1)
  }

  test("mixed cross pattern: p at parent plus n at child (Fig. 2 shape)") {
    // left blocks b0,b1 under A; b0 connected to C, b1 not; best is either
    // two block edges or (A,C) + n(b1,C): cost 2 both ways — never 3
    val p = Panel.cross(Seq(1, 2), Nil, 20, 21, 30, Nil)
    val targets = p.shape.crossPairs.map { case (i, _) => if (i == 0) 1 else 0 }
    val reproduce = List((p.shape.slotOf(p.shape.blocks(0), p.symOf(30) match { case s => s }), 1))
    val s = MinCover.solve(p.shape.code, p.shape.slotCovers, targets, reproduce)
    assert(s.cost == 1)
  }
}
