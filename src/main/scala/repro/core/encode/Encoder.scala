package repro.core.encode

import scala.collection.mutable

/** A p/n edge of the summary, canonical with x <= y; sign is +1 (p) or -1 (n). */
final case class Enc(x: Int, y: Int, sign: Int)

/** Minimum signed edge cover with memoization — the engine behind SLUGGER's
  * Case 1 / Case 2 encoding updates (paper §III-B3).
  *
  * A *panel* is the bounded set of supernodes whose incident p/n-edges may
  * be rewritten when two root nodes merge: up to 7 supernodes for Case 1
  * (the merged node, its two children, and their children) and 7 x 3 for
  * Case 2 (that panel vs a neighbor root's 1-level family). The *blocks* are
  * the finest panel level; by exactness of the current encoding, the net
  * p-minus-n count is uniform over every block pair, so a rewrite is valid
  * iff it reproduces the old net on every block pair (and the old self-loop
  * sum inside every non-singleton block). The search therefore minimizes the
  * number of signed edges hitting a target vector.
  *
  * Panels are binary (a merge makes a node of two children, so every panel
  * root has 0 or 2) and every target is 0 or 1 (an exact summary of a simple
  * graph nets every leaf pair to 0 or 1); [[solve]] requires both. Then one
  * edge at each target-1 constraint's own slot is a cover, so an
  * iterative-deepening search always stops, at the minimum. The memo maps
  * (panel shape, targets) to that search's first cover: like the paper's
  * table it depends on neither the input graph nor the order in which keys
  * are first asked, and it is shared across graphs, runs and executor
  * threads.
  */
object MinCover {

  /** (shape code << 32 | target bitmask) -> the picks of its first minimum cover. */
  private val memo = new java.util.concurrent.ConcurrentHashMap[Long, List[(Int, Int)]]()

  /** Number of distinct memoized cases so far (for the memoization bench). */
  def memoSize: Int = memo.size

  /** A minimum set of (slot, sign) picks that nets exactly to `targets`: the
    * caller's `reproduce` when it is as small as the key's memoized cover,
    * that cover otherwise.
    *
    * @param reproduce the old encoding mapped onto slots, which nets to
    *                  `targets`
    */
  def solve(shape: PanelShape, targets: Array[Int], reproduce: List[(Int, Int)]): List[(Int, Int)] = {
    require(shape.binary && targets.length == shape.nCons && targets.forall(t => t == 0 || t == 1),
      s"MinCover needs a binary panel shape and 0/1 targets: shape ${shape.code}, " +
        s"targets ${targets.mkString("[", ",", "]")}")
    var mask = 0L
    var c = 0
    while (c < targets.length) { mask |= targets(c).toLong << c; c += 1 }
    val cover = memo.computeIfAbsent(shape.code.toLong << 32 | mask, _ => search(shape.slotCovers, targets))
    if (reproduce.size <= cover.size) reproduce else cover
  }

  private def search(covers: Array[Long], targets: Array[Int]): List[(Int, Int)] = {
    val nCons = targets.length
    val maxCov = covers.map(java.lang.Long.bitCount).max
    // Slots covering each constraint, widest coverage first (coarse-first
    // tie-break: prefer edges high in the hierarchy, which keeps future
    // panels rewritable — the paper's "choose considering the next step").
    val byCons = Array.tabulate(nCons) { c =>
      covers.indices.filter(s => (covers(s) >> c & 1L) == 1L)
        .sortBy(s => -java.lang.Long.bitCount(covers(s))).toArray
    }
    val res = targets.clone()
    val used = new Array[Boolean](covers.length)
    val picks = mutable.ListBuffer.empty[(Int, Int)]
    var best: List[(Int, Int)] = null

    def lowerBound: Int = {
      var maxAbs = 0; var sum = 0
      var c = 0
      while (c < nCons) { val a = math.abs(res(c)); if (a > maxAbs) maxAbs = a; sum += a; c += 1 }
      math.max(maxAbs, (sum + maxCov - 1) / maxCov)
    }

    def dfs(depth: Int, limit: Int): Boolean = {
      var c = 0
      while (c < nCons && res(c) == 0) c += 1
      if (c == nCons) { best = picks.toList; return true }
      if (depth + lowerBound > limit) return false
      val slots = byCons(c)
      val prefer = if (res(c) > 0) 1 else -1
      var i = 0
      while (i < slots.length) {
        val s = slots(i)
        if (!used(s)) {
          var k = 0
          while (k < 2) {
            val sign = if (k == 0) prefer else -prefer
            used(s) = true; picks += ((s, sign))
            var cc = 0
            while (cc < nCons) { if ((covers(s) >> cc & 1L) == 1L) res(cc) -= sign; cc += 1 }
            if (dfs(depth + 1, limit)) return true
            cc = 0
            while (cc < nCons) { if ((covers(s) >> cc & 1L) == 1L) res(cc) += sign; cc += 1 }
            picks.remove(picks.length - 1); used(s) = false
            k += 1
          }
        }
        i += 1
      }
      false
    }

    var limit = lowerBound
    while (!dfs(0, limit)) limit += 1
    best
  }
}

/** The structure of a Case 1 or Case 2 panel: symbols, blocks, constraints
  * and slots. It depends only on the shape code
  * `kind<<20 | nA<<8 | nB<<4 | low` (kind 1: `low` marks Case 1's singleton
  * blocks; kind 2: `low` is C's child count), so it is built once per code,
  * the code the [[MinCover]] memo is keyed on.
  *
  * Symbols: 0=M, 1=A, 2=B, A's `nA` children, B's `nB` children, and in
  * Case 2 then C and C's children. The blocks are each family's finest
  * level (a childless root is its own block).
  *
  * `crossOnly` marks a Case 2 panel: only pairs between the two families are
  * constrained and only family-crossing edges may be placed.
  */
final class PanelShape private (val code: Int) {
  private val nA = code >> 8 & 0xF
  private val nB = code >> 4 & 0xF
  val crossOnly: Boolean = code >> 20 == 2
  private val nC = if (crossOnly) code & 0xF else 0
  /** Every panel root has 0 or 2 children, as every merge leaves them. */
  val binary: Boolean = Seq(nA, nB, nC).forall(n => n == 0 || n == 2)
  private val cSym = 3 + nA + nB
  val nSym: Int = if (crossOnly) cSym + 1 + nC else cSym

  /** Panel-internal parent symbol, or -1. */
  val symParent: Array[Int] = Array.tabulate(nSym) { s =>
    if (s == 0 || s == cSym) -1 else if (s <= 2) 0 else if (s < 3 + nA) 1
    else if (s < cSym) 2 else cSym
  }
  /** 0 = merged family, 1 = neighbor family. */
  val symSide: Array[Int] = Array.tabulate(nSym)(s => if (crossOnly && s >= cSym) 1 else 0)
  val blocks: Array[Int] = {
    def family(top: Int, first: Int, n: Int): Seq[Int] =
      if (n == 0) Seq(top) else first until first + n
    (family(1, 3, nA) ++ family(2, 3 + nA, nB) ++
      (if (crossOnly) family(cSym, cSym + 1, nC) else Nil)).toArray
  }
  /** No within-block constraints cross-family, so Case 2 blocks count as singletons. */
  val blockSingleton: Array[Boolean] =
    Array.tabulate(blocks.length)(i => crossOnly || (code >> i & 1) == 1)

  private def containsSym(anc: Int, sym: Int): Boolean = {
    var s = sym
    while (s >= 0) { if (s == anc) return true; s = symParent(s) }
    false
  }

  /** Constraint layout: constrained unordered block pairs first, then
    * self-loop sums for non-singleton blocks (Case 1 only).
    */
  val crossPairs: Array[(Int, Int)] =
    (for {
      i <- blocks.indices; j <- i + 1 until blocks.length
      if !crossOnly || symSide(blocks(i)) != symSide(blocks(j))
    } yield (i, j)).toArray
  val sumBlocks: Array[Int] = blocks.indices.filter(i => !blockSingleton(i)).toArray
  val nCons: Int = crossPairs.length + sumBlocks.length

  /** Coverage bitmask of an edge between panel symbols (x may equal y: loop). */
  def coverOf(sx: Int, sy: Int): Long = {
    var mask = 0L
    var k = 0
    while (k < crossPairs.length) {
      val (i, j) = crossPairs(k)
      val bi = blocks(i); val bj = blocks(j)
      val cov =
        if (sx == sy) containsSym(sx, bi) && containsSym(sx, bj)
        else (containsSym(sx, bi) && containsSym(sy, bj)) ||
             (containsSym(sy, bi) && containsSym(sx, bj))
      if (cov) mask |= 1L << k
      k += 1
    }
    var q = 0
    while (q < sumBlocks.length) {
      if (sx == sy && containsSym(sx, blocks(sumBlocks(q)))) mask |= 1L << (crossPairs.length + q)
      q += 1
    }
    mask
  }

  /** Candidate positions for new edges: never between nested symbols, never
    * same-family in a Case 2 panel, never with empty coverage. Order is
    * deterministic given the shape.
    */
  val slots: Array[(Int, Int)] = {
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    if (!crossOnly) for (s <- 0 until nSym) if (coverOf(s, s) != 0L) out += ((s, s))
    for (a <- 0 until nSym; b <- a + 1 until nSym) {
      val ok = !containsSym(a, b) && !containsSym(b, a) &&
        (!crossOnly || symSide(a) != symSide(b)) && coverOf(a, b) != 0L
      if (ok) out += ((a, b))
    }
    out.toArray
  }
  val slotCovers: Array[Long] = slots.map { case (a, b) => coverOf(a, b) }
  private val slotIndex: Array[Int] = Array.tabulate(nSym * nSym) { k =>
    slots.indexWhere { case (a, b) => k == a * nSym + b || k == b * nSym + a }
  }

  /** Slot of the position between two symbols, or -1 if it is not a slot. */
  def slotOf(sx: Int, sy: Int): Int = slotIndex(sx * nSym + sy)
}

object PanelShape {
  private val cache = new java.util.concurrent.ConcurrentHashMap[Int, PanelShape]()

  def apply(code: Int): PanelShape = cache.computeIfAbsent(code, c => new PanelShape(c))
}

/** A concrete Case 1 or Case 2 panel: the super ids of its shape's symbols.
  *
  * The caller maps old edges into symbol pairs; an edge with an endpoint
  * outside the panel is *deep* and stays fixed — the paper's "while fixing
  * the other p-edges and n-edges". Deep edges never cross a block pair that
  * the panel rewrites (they sit strictly inside a single block, or their
  * block-pair target already accounts for them via the old panel net).
  * Symbol 0 (M) carries no id (-1): no edge touches M before the merger.
  */
final class Panel private (symIds: Array[Int], val shape: PanelShape) {

  /** Symbol of a concrete super id, or -1 if outside the panel (deep). */
  def symOf(id: Int): Int = {
    var s = 1
    while (s < symIds.length && symIds(s) != id) s += 1
    if (s < symIds.length) s else -1
  }

  /** The edge placed at `slot` with `sign`, with `m` as M's id. */
  def edge(slot: Int, sign: Int, m: Int): Enc = {
    val (sx, sy) = shape.slots(slot)
    val x = if (sx == 0) m else symIds(sx)
    val y = if (sy == 0) m else symIds(sy)
    if (x <= y) Enc(x, y, sign) else Enc(y, x, sign)
  }
}

object Panel {

  /** Case 1 panel for merging roots A and B into M. */
  def internal(aChildren: Seq[Int], bChildren: Seq[Int], aId: Int, bId: Int,
               isLeafSuper: Int => Boolean): Panel = {
    var singleMask = 0; var block = 0
    def addBlock(id: Int): Unit = { if (isLeafSuper(id)) singleMask |= 1 << block; block += 1 }
    if (aChildren.isEmpty) addBlock(aId) else aChildren.foreach(addBlock)
    if (bChildren.isEmpty) addBlock(bId) else bChildren.foreach(addBlock)
    new Panel(Array(-1, aId, bId) ++ aChildren ++ bChildren,
              PanelShape(1 << 20 | aChildren.length << 8 | bChildren.length << 4 | singleMask))
  }

  /** Case 2 panel: the merged family {M, A, B, ch(A), ch(B)} versus a
    * neighbor root C's 1-level family {C, ch(C)}.
    */
  def cross(aChildren: Seq[Int], bChildren: Seq[Int], aId: Int, bId: Int,
            cId: Int, cChildren: Seq[Int]): Panel =
    new Panel(Array(-1, aId, bId) ++ aChildren ++ bChildren ++ (cId +: cChildren),
              PanelShape(2 << 20 | aChildren.length << 8 | bChildren.length << 4 | cChildren.length))
}
