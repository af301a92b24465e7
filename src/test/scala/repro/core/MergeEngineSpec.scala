package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.baselines.{FlatState, Sweg}
import repro.core.encode.Enc
import repro.core.local.{MergeEngine, Pruner, SummaryState}
import repro.graph.LocalGraph
import scala.util.Random

/** Saving function, thresholds, Lemma 1, commit bookkeeping and the
  * candidate-set check of the shared Algorithm 2 loop.
  */
class MergeEngineSpec extends AnyFunSuite {
  import MergeEngineSpec.pairKeyMismatches

  def path(n: Int): LocalGraph =
    LocalGraph.fromEdges((0 until n - 1).map(i => (i.toLong, i.toLong + 1)))

  test("theta follows Eq. (9)") {
    val e = new MergeEngine(new SummaryState(path(3)))
    assert(e.theta(1, 20) == 0.5)
    assert(e.theta(4, 20) == 0.2)
    assert(e.theta(20, 20) == 0.0)
    assert(e.theta(19, 20) == 1.0 / 20)
    assert((1 to 20).forall(t => e.theta(t, 20) == MergeEngine.theta(t, 20)))
  }

  test("Lemma 1: merging roots at distance >= 3 always increases the cost") {
    // path 0-1-2-3-4-5: nodes 0 and 4 are at distance 4
    val g = path(6)
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    assert(!e.closeEnough(0, 4))
    assert(!e.closeEnough(0, 3))
    val before = st.rootCost(0) + st.rootCost(4)
    assert(e.afterCost(0, 4) == before + 2, "Eq. (18): after = before + 2")
    assert(e.saving(0, 4) < 0)
  }

  test("closeEnough accepts adjacent roots and distance-2 roots") {
    val g = path(4)
    val e = new MergeEngine(new SummaryState(g))
    assert(e.closeEnough(0, 1)) // adjacent
    assert(e.closeEnough(0, 2)) // share neighbor 1
  }

  test("saving is symmetric") {
    val rng = new Random(3)
    val g = LocalGraph.fromEdges(Seq.fill(60)((rng.nextInt(20).toLong, rng.nextInt(20).toLong)))
    val e = new MergeEngine(new SummaryState(g))
    for (a <- 0 until 8; b <- a + 1 until 8 if e.closeEnough(a, b)) {
      assert(math.abs(e.saving(a, b) - e.saving(b, a)) < 1e-12, s"($a,$b)")
    }
  }

  test("saving of twin nodes (identical neighborhoods) is high") {
    // 0 and 1 both connect to 2,3,4,5 — classic mergeable twins
    val g = LocalGraph.fromEdges(for (t <- 0 to 1; o <- 2 to 5) yield (t.toLong, o.toLong))
    val e = new MergeEngine(new SummaryState(g))
    // before: 8 edges; after: 2 h + 4 cross edges = 6 -> saving 0.25
    assert(math.abs(e.saving(0, 1) - 0.25) < 1e-9)
  }

  /** Disjoint 10-cliques, each edge dropped with probability 0.15, plus
    * noise: merged cliques may encode their missing edges as n-edges.
    */
  def gappyCliques(nCliques: Int, noise: Int, seed: Long): LocalGraph = {
    val rng = new Random(seed)
    val n = nCliques * 10
    val cliques = for {
      c <- 0 until nCliques; i <- 0 until 10; j <- i + 1 until 10 if rng.nextDouble() >= 0.15
    } yield ((c * 10 + i).toLong, (c * 10 + j).toLong)
    LocalGraph.fromEdges(cliques ++ Seq.fill(noise)((rng.nextInt(n).toLong, rng.nextInt(n).toLong)))
  }

  /** Runs Algorithm 2 over T iterations of candidate sets, then replays its
    * merges in commit order on a fresh state. Before each, `afterCost` must
    * equal the merged root's cost once committed, and after each the
    * summary must decompress to the input and every root's pair-map keys
    * must be exactly the roots its family has a subedge to (the set
    * `closeEnough` relies on). Returns the number of merges checked and
    * whether any n-edge appeared.
    */
  def checkEveryMerge(g: LocalGraph, seed: Long, heightBound: Int = Int.MaxValue): (Int, Boolean) = {
    val bigT = 6
    val run = new SummaryState(g)
    val runEngine = new MergeEngine(run)
    MergeEngine.mergePhase(g, run.find, bigT, seed, maxGroupSize = 16) { (sets, th, rngSeed) =>
      val rng = new Random(rngSeed)
      sets.foldLeft(0L)((merges, d) => merges + runEngine.processGroup(d, th, rng, heightBound))
    }
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    var sawNEdge = false
    (g.n until run.nSupers).foreach { m =>
      val ch = run.childrenOf(m)
      val predicted = e.afterCost(ch(0), ch(1))
      assert(e.merge(ch(0), ch(1)) == m)
      assert(st.rootCost(m).toLong == predicted,
        s"merge $m of $ch: predicted $predicted vs actual ${st.rootCost(m)}")
      assert(Pruner.fromState(st).toSummary.decompress == g.edgeSet, s"merge $m of $ch is not lossless")
      val bad = pairKeyMismatches(g, st)
      assert(bad.isEmpty, s"after merge $m of $ch: pair-map keys of roots $bad")
      sawNEdge ||= st.allEdges.exists(_.sign < 0)
    }
    (run.nSupers - g.n, sawNEdge)
  }

  test("afterCost equals realized cost after commit") {
    for (seed <- 1 to 4) {
      val (merges, _) = checkEveryMerge(randomGraph(40, 120, seed), seed)
      assert(merges > 0, s"seed $seed")
    }
  }

  test("afterCost equals realized cost at every merge on cliques with missing edges") {
    for (seed <- 1 to 3) {
      val (merges, sawNEdge) = checkEveryMerge(gappyCliques(6, 15, seed), seed)
      assert(merges > 0 && sawNEdge, s"seed $seed: $merges merges, n-edge placed: $sawNEdge")
    }
  }

  test("afterCost equals realized cost at every merge under H_b=2") {
    for (seed <- 1 to 3) {
      assert(checkEveryMerge(randomGraph(40, 120, seed), seed, heightBound = 2)._1 > 0)
      assert(checkEveryMerge(gappyCliques(6, 15, seed), seed, heightBound = 2)._1 > 0)
    }
  }

  test("commit keeps the model lossless and reparents both merged roots") {
    val g = LocalGraph.fromEdges(for (t <- 0 to 1; o <- 2 to 5) yield (t.toLong, o.toLong))
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    val m = e.merge(0, 1)
    assert(st.find(0) == m && st.find(1) == m)
    assert(st.isRoot(m) && !st.isRoot(0) && !st.isRoot(1))
    assert(st.famSize(m) == 3)
    assert(Pruner.fromState(st).toSummary.decompress == g.edgeSet)
  }

  test("a merge rejects a panel edge at a position that is not a slot") {
    // twins 0 and 1 share neighbor 2; no rewrite places an edge between the
    // merged root and its own child
    val g = LocalGraph.fromEdges(Seq((0L, 2L), (1L, 2L)))
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    val m = e.merge(0, 1)
    st.internal(m) += Enc(0, m, +1)
    val err = intercept[IllegalArgumentException](e.merge(m, 2))
    assert(err.getMessage.contains(s"Enc(0,$m,1) is at a position that is not a slot"), err.getMessage)
  }

  test("merging twins then their neighbors keeps collapsing a bipartite core") {
    val g = LocalGraph.fromEdges(for (t <- 0 to 2; o <- 3 to 7) yield (t.toLong, o.toLong))
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    val mTop = e.merge(0, 1)
    val mTop2 = e.merge(mTop, 2)
    val mBot = e.merge(3, 4)
    val mBot2 = e.merge(mBot, 5)
    assert(Pruner.fromState(st).toSummary.decompress == g.edgeSet)
    // the core should now be encoded by very few cross edges
    assert(st.pairs(st.find(mTop2))(st.find(mBot2)).length <= 2)
  }

  test("processGroup respects the height bound") {
    val g = LocalGraph.fromEdges(for (t <- 0 to 3; o <- 4 to 9) yield (t.toLong, o.toLong))
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    e.processGroup(0 until 10, th = 0.0, new Random(1), heightBound = 1)
    (0 until st.nSupers).foreach(x => assert(st.heightOf(x) <= 1))
    assert(Pruner.fromState(st).toSummary.decompress == g.edgeSet)
  }

  test("Algorithm 2 rejects a candidate set holding a merged-away id or a duplicate, naming the id") {
    // twins 0 and 1 over neighbors 2..5; each state merges the twins first
    val g = LocalGraph.fromEdges(for (t <- 0 to 1; o <- 2 to 5) yield (t.toLong, o.toLong))
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    e.merge(0, 1)
    val fs = new FlatState(g)
    val swegGone = 1 - fs.merge(0, 1) // FlatState keeps one twin's id
    def slugger(set: Seq[Int]): Int = e.processGroup(set, th = 0.0, new Random(1))
    def sweg(set: Seq[Int]): Int =
      MergeEngine.greedy(set, new Random(1), fs.cnt.contains)(Sweg.partner(fs, 0.0))(fs.merge)
    for ((name, run, gone) <- Seq(("SLUGGER", slugger _, 0), ("SWEG", sweg _, swegGone))) {
      val stale = intercept[IllegalArgumentException](run(Seq(2, gone, 3)))
      assert(stale.getMessage.contains(s"candidate set holds $gone, which is not a live root"),
        s"$name: ${stale.getMessage}")
      val dup = intercept[IllegalArgumentException](run(Seq(2, 3, 4, 3)))
      assert(dup.getMessage.contains("candidate set holds 3 twice"), s"$name: ${dup.getMessage}")
    }
    // both sets are rejected before any merge
    assert(st.nSupers == g.n + 1 && fs.cnt.size == g.n - 1)
  }

  test("processGroup with threshold 1 merges nothing") {
    val g = path(8)
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    val merges = e.processGroup(0 until 8, th = 1.01, new Random(1))
    assert(merges == 0)
    assert(st.nSupers == 8)
  }

  test("pair buffers stay shared between both root maps after merges") {
    val rng = new Random(5)
    val g = LocalGraph.fromEdges(Seq.fill(70)((rng.nextInt(22).toLong, rng.nextInt(22).toLong)))
    val st = new SummaryState(g)
    val e = new MergeEngine(st)
    e.processGroup(0 until g.n, th = 0.0, new Random(2))
    val roots = (0 until st.nSupers).filter(st.isRoot)
    roots.foreach { r =>
      st.pairs(r).foreach { case (c, buf) =>
        assert(st.pairs(c)(r) eq buf, s"pair ($r,$c) buffer not shared")
      }
    }
  }
}

object MergeEngineSpec {

  /** The live roots of st whose pair-map keys are not exactly the roots
    * their family has a subedge to in g.
    */
  def pairKeyMismatches(g: LocalGraph, st: SummaryState): Seq[Int] = {
    val adjacent = g.edges.toSeq
      .map { case (u, v) => (st.find(u), st.find(v)) }
      .filter { case (ru, rv) => ru != rv }
      .flatMap { case (ru, rv) => Seq(ru -> rv, rv -> ru) }
      .groupMap(_._1)(_._2).view.mapValues(_.toSet)
    (0 until st.nSupers).filter(r =>
      st.isRoot(r) && st.pairs(r).keySet != adjacent.getOrElse(r, Set.empty[Int]))
  }
}
