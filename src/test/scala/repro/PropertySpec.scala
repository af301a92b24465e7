package repro

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{MossoLite, Randomized, Sags, Sweg}
import repro.core.GroupStateSpec
import repro.core.local.{MergeEngine, Pruner, Slugger, SummaryState}
import repro.core.model.HierSummary
import repro.graph.LocalGraph
import scala.util.Random

/** Randomized checks on generated graphs and parameters: the executor
  * snapshot reproduces local Algorithm 2, SLUGGER stays lossless through
  * every pruning substep, the four baselines are lossless, and every leaf
  * pair of all those summaries nets to 0 or 1.
  *
  * Raw pairs carry duplicates (both orientations) and self-loops and go
  * through `LocalGraph.fromEdges`, so empty graphs (all pairs dropped) are
  * generated too. The seed is fixed, so a run is reproducible.
  */
class PropertySpec extends AnyFunSuite {
  import PropertySpec._

  def check(prop: Prop): Unit = {
    val res = Test.check(params, prop)
    assert(res.passed, Pretty.pretty(res, Pretty.Params(1)))
  }

  test("every candidate set's executor snapshot makes exactly processGroup's merges") {
    check(Prop.forAllNoShrink(cases) { case (in, cfg) =>
      val (compared, mismatches) = GroupStateSpec.compareOnEveryGroup(in.graph, cfg)
      Prop(mismatches.isEmpty) :| s"${in.name}, $cfg, $compared merges: ${mismatches.mkString("; ")}"
    })
  }

  test("SLUGGER is lossless after the merge phase and after each pruning substep") {
    check(Prop.forAllNoShrink(cases) { case (in, cfg) =>
      val bad = sluggerStages(in.graph, cfg).flatMap { case (stage, s) =>
        lossFound(in.graph, s).map(l => s"$stage: $l")
      }
      Prop(bad.isEmpty) :| s"${in.name}, $cfg: ${bad.mkString("; ")}"
    })
  }

  test("SWEG, RANDOMIZED, SAGS and MoSSo-lite are lossless") {
    check(Prop.forAllNoShrink(cases) { case (in, cfg) =>
      val lossy = baselines(in.graph, cfg).collect { case (name, s) if s.decompress != in.graph.edgeSet => name }
      Prop(lossy.isEmpty) :| s"${in.name}, seed ${cfg.seed}: ${lossy.mkString(", ")} lossy"
    })
  }

  test("every leaf pair nets to 0 or 1: SLUGGER at each stage and the four baselines") {
    check(Prop.forAllNoShrink(cases) { case (in, cfg) =>
      val bad = (sluggerStages(in.graph, cfg) ++ baselines(in.graph, cfg)).flatMap { case (name, s) =>
        s.pairNets.find { case (_, net) => net != 0 && net != 1 }.map { case (uv, net) => s"$name: $uv nets $net" }
      }
      Prop(bad.isEmpty) :| s"${in.name}, $cfg: ${bad.mkString("; ")}"
    })
  }
}

object PropertySpec {

  val params: Test.Parameters = Test.Parameters.default
    .withInitialSeed(Seed(20221))
    .withMinSuccessfulTests(300)
    .withWorkers(1)

  /** A named list of raw node pairs. */
  final case class Input(name: String, pairs: Seq[(Long, Long)]) {
    lazy val graph: LocalGraph = LocalGraph.fromEdges(pairs)
  }

  /** The pairs, then up to 6 of them again reversed and up to 6 self-loops. */
  def messy(pairs: Seq[(Long, Long)], n: Int): Gen[Seq[(Long, Long)]] = for {
    k <- Gen.choose(0, 6)
    dups <- Gen.pick(math.min(k, pairs.length), pairs.indices)
    loops <- Gen.listOfN(k, Gen.choose(0L, math.max(0, n - 1).toLong))
  } yield pairs ++ dups.map(i => pairs(i).swap) ++ loops.map(v => (v, v))

  val erLike: Gen[Input] = for {
    n <- Gen.choose(1, 40)
    m <- Gen.choose(0, 3 * n)
    ps <- Gen.listOfN(m, Gen.zip(Gen.choose(0L, n - 1L), Gen.choose(0L, n - 1L)))
    raw <- messy(ps, n)
  } yield Input(s"ER($n,$m)", raw)

  /** Disjoint cliques with 5–15% of their edges dropped. */
  val raggedCliques: Gen[Input] = for {
    k <- Gen.choose(1, 4)
    size <- Gen.choose(3, 10)
    drop <- Gen.choose(0.05, 0.15)
    dropSeed <- Gen.long
    edges = for (c <- 0 until k; i <- 0 until size; j <- i + 1 until size)
      yield ((c * size + i).toLong, (c * size + j).toLong)
    kept = { val rng = new Random(dropSeed); edges.filter(_ => rng.nextDouble() >= drop) }
    raw <- messy(kept, k * size)
  } yield Input(f"$k cliques of $size, $drop%.2f dropped", raw)

  val star: Gen[Input] = for {
    leaves <- Gen.choose(1, 30)
    raw <- messy((1 to leaves).map(v => (0L, v.toLong)), leaves + 1)
  } yield Input(s"star of $leaves", raw)

  /** Two generated inputs on disjoint id ranges. */
  val disconnected: Gen[Input] = for {
    a <- Gen.oneOf(erLike, raggedCliques, star)
    b <- Gen.oneOf(erLike, raggedCliques, star)
  } yield Input(s"${a.name} + ${b.name}", a.pairs ++ b.pairs.map { case (u, v) => (u + 1000, v + 1000) })

  val inputs: Gen[Input] = Gen.oneOf(erLike, raggedCliques, star, disconnected)

  val configs: Gen[Slugger.Config] = for {
    seed <- Gen.choose(0L, 1L << 40)
    bigT <- Gen.choose(1, 4)
    hb <- Gen.oneOf(1, 2, 3, Int.MaxValue)
    cap <- Gen.choose(2, 16)
  } yield Slugger.Config(T = bigT, seed = seed, maxGroupSize = cap, heightBound = hb)

  val cases: Gen[(Input, Slugger.Config)] = Gen.zip(inputs, configs)

  /** SLUGGER's summary after the merge phase and after each pruning substep. */
  def sluggerStages(g: LocalGraph, cfg: Slugger.Config): Seq[(String, HierSummary)] = {
    val st = new SummaryState(g)
    val engine = new MergeEngine(st)
    MergeEngine.mergePhase(g, st.find, cfg.T, cfg.seed, cfg.maxGroupSize) { (sets, th, rngSeed) =>
      val rng = new Random(rngSeed)
      sets.foldLeft(0L)((merges, d) => merges + engine.processGroup(d, th, rng, cfg.heightBound))
    }
    val ps = Pruner.fromState(st)
    val merged = ps.toSummary
    Pruner.step1(ps); val step1 = ps.toSummary
    Pruner.step2(ps); val step2 = ps.toSummary
    Pruner.step3(ps, g)
    Seq("merge phase" -> merged, "step 1" -> step1, "step 2" -> step2, "step 3" -> ps.toSummary)
  }

  /** The four baselines' summaries of `g` at `cfg`'s seed (and T for SWEG). */
  def baselines(g: LocalGraph, cfg: Slugger.Config): Seq[(String, HierSummary)] = Seq(
    "SWEG" -> Sweg.summarize(g, cfg.T, cfg.seed),
    "RANDOMIZED" -> Randomized.summarize(g, cfg.seed),
    "SAGS" -> Sags.summarize(g, cfg.seed),
    "MoSSo-lite" -> MossoLite.summarize(g, cfg.seed))

  /** How `s`'s decoded edges or a neighbor query differ from `g`, if they do. */
  def lossFound(g: LocalGraph, s: HierSummary): Option[String] = {
    val decoded = s.decompress
    if (decoded != g.edgeSet) Some(s"decompress differs on ${(decoded diff g.edgeSet) ++ (g.edgeSet diff decoded)}")
    else (0 until g.n).find(v => s.neighbors(v) != g.adj(v).toSet).map(v => s"neighbors($v) differs")
  }
}
