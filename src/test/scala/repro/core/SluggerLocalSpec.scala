package repro.core

import repro.SparkSpec
import repro.TestGraphs.{clique, randomGraph}
import repro.core.local.{CandidateGen, MergeEngine, Pruner, Slugger, SummaryState}
import repro.graph.{GraphGen, LocalGraph}
import scala.util.Random

/** End-to-end losslessness and behavior of the local SLUGGER. */
class SluggerLocalSpec extends SparkSpec {

  /** Deterministic random graph G(n, p)-ish. */
  def star(n: Int): LocalGraph =
    LocalGraph.fromEdges((1 until n).map(i => (0L, i.toLong)))

  // --- losslessness on structured graphs -----------------------------------

  test("clique of 8 summarizes losslessly and much smaller") {
    val g = clique(8)
    val r = Slugger.summarize(g, Slugger.Config(T = 10, seed = 1))
    assert(r.summary.decompress == g.edgeSet)
    assert(r.summary.cost < g.m, s"cost ${r.summary.cost} should beat ${g.m}")
  }

  test("star of 20 summarizes losslessly and never worse than the input") {
    // A pure star cannot compress under Eq. (1): merging the k leaves costs
    // k h-edges to save k-1 p-edges. SLUGGER must recognize this and stay
    // at (or below) the input size.
    val g = star(20)
    val r = Slugger.summarize(g, Slugger.Config(T = 10, seed = 2))
    assert(r.summary.decompress == g.edgeSet)
    assert(r.summary.cost <= g.m)
  }

  test("two cliques joined by one edge stay lossless") {
    val base = (for { i <- 0 until 6; j <- i + 1 until 6 } yield (i.toLong, j.toLong)) ++
      (for { i <- 6 until 12; j <- i + 1 until 12 } yield (i.toLong, j.toLong)) :+ (0L, 6L)
    val g = LocalGraph.fromEdges(base)
    val r = Slugger.summarize(g, Slugger.Config(T = 10, seed = 3))
    assert(r.summary.decompress == g.edgeSet)
    assert(r.summary.cost < g.m)
  }

  // --- losslessness on random graphs (the searching stress test) -----------

  for (seed <- 1 to 10) {
    test(s"random sparse graph losslessness (seed=$seed)") {
      val g = randomGraph(60, 150, seed)
      val r = Slugger.summarize(g, Slugger.Config(T = 8, seed = seed))
      assert(r.summary.decompress == g.edgeSet)
    }
  }

  for (seed <- 1 to 5) {
    test(s"random dense graph losslessness (seed=$seed)") {
      val g = randomGraph(30, 250, seed * 17)
      val r = Slugger.summarize(g, Slugger.Config(T = 8, seed = seed))
      assert(r.summary.decompress == g.edgeSet)
    }
  }

  test("mid-merge state stays lossless at every iteration") {
    val g = randomGraph(50, 140, 99)
    val st = new SummaryState(g)
    val engine = new MergeEngine(st)
    for (t <- 1 to 5) {
      val groups = CandidateGen.groups(st, 1000 + t)
      val rng = new Random(t)
      groups.foreach(d => engine.processGroup(d, engine.theta(t, 5), rng))
      assert(Pruner.fromState(st).toSummary.decompress == g.edgeSet, s"lossy after iteration $t")
    }
  }

  test("cost bookkeeping matches recomputed totals") {
    val g = randomGraph(50, 140, 7)
    val st = new SummaryState(g)
    val engine = new MergeEngine(st)
    for (t <- 1 to 4) {
      val rng = new Random(t)
      CandidateGen.groups(st, 2000 + t).foreach(d => engine.processGroup(d, engine.theta(t, 4), rng))
    }
    val bad = MergeEngineSpec.pairKeyMismatches(g, st)
    assert(bad.isEmpty, s"pair-map keys of roots $bad")
  }

  test("iteration t merges CandidateGen's sets for seed + 7919·t at θ(t) with RNG seed seed·31 + t") {
    val g = LocalGraph.fromDF(GraphGen.erdosRenyi(spark, 200, 600))
    val cfg = Slugger.Config(T = 3, maxGroupSize = 16)
    val thetas = scala.collection.mutable.ArrayBuffer.empty[Double]
    val r = Slugger.run(g, cfg) { (st, engine, sets, th, rngSeed) =>
      val t = thetas.length + 1
      thetas += th
      assert(sets == CandidateGen.groups(st, cfg.seed + 7919L * t, cfg.maxGroupSize), s"t=$t: candidate sets")
      assert(th == MergeEngine.theta(t, cfg.T), s"t=$t: θ")
      assert(rngSeed == cfg.seed * 31 + t, s"t=$t: RNG seed")
      val rng = new Random(rngSeed)
      sets.foldLeft(0L)((merges, d) => merges + engine.processGroup(d, th, rng, cfg.heightBound))
    }
    assert(thetas.length == cfg.T && thetas.distinct.length == cfg.T)
    assert(r.totalMerges > 0 && r.totalMerges == Slugger.summarize(g, cfg).totalMerges)
  }

  test("maxGroupSize below 2 is rejected with a message naming the field") {
    for (k <- Seq(0, 1)) {
      val e = intercept[IllegalArgumentException](
        Slugger.summarize(clique(4), Slugger.Config(maxGroupSize = k)))
      assert(e.getMessage.contains("maxGroupSize"), e.getMessage)
    }
  }

  test("T and heightBound below 1 are rejected with messages naming the field") {
    for (k <- Seq(0, -1)) {
      val eT = intercept[IllegalArgumentException](
        Slugger.summarize(clique(4), Slugger.Config(T = k)))
      assert(eT.getMessage.contains("Config.T "), eT.getMessage)
      val eH = intercept[IllegalArgumentException](
        Slugger.summarize(clique(4), Slugger.Config(heightBound = k)))
      assert(eH.getMessage.contains("heightBound"), eH.getMessage)
    }
  }

  test("compression does not get worse with more iterations (random graph)") {
    val g = randomGraph(80, 200, 5)
    val c1 = Slugger.summarize(g, Slugger.Config(T = 1, seed = 5)).summary.cost
    val c20 = Slugger.summarize(g, Slugger.Config(T = 20, seed = 5)).summary.cost
    assert(c20 <= c1, s"T=20 cost $c20 should be <= T=1 cost $c1")
  }

  test("relative size is cost / |E|") {
    val g = clique(10)
    val r = Slugger.summarize(g, Slugger.Config(T = 5, seed = 1))
    assert(math.abs(r.summary.relativeSize(g.m) - r.summary.cost.toDouble / g.m) < 1e-12)
  }
}
