package repro.core

import repro.SparkSpec
import repro.baselines.{MossoLite, Randomized, Sags, Sweg}
import repro.bench.Datasets
import repro.core.local.Slugger
import repro.core.model.HierSummary
import repro.core.spark.SluggerSpark
import repro.graph.{GraphGen, LocalGraph}
import scala.util.hashing.MurmurHash3

/** Bit-identity guard for refactors of the merge path: a hash of the whole
  * output — `pPlus` and `pMinus` in order, `parent`, `alive`, `totalMerges`
  * and the Table IV snapshots — on four fixed inputs. The expected values
  * were recorded from the implementation before panel shapes were shared
  * between candidate pairs; a change that alters any summary fails here.
  * The distributed value was re-recorded when `SluggerSpark` switched from
  * DataFrame candidate sets to `CandidateGen.groups` on the driver, which
  * changes its sets and their replay order by design.
  * The four baselines are pinned the same way (`pPlus` and `pMinus` in
  * order, `parent`, `alive`) on the PR stand-in.
  */
class GoldenOutputSpec extends SparkSpec {

  def digest(r: Slugger.Result): Int = {
    val s = r.summary
    MurmurHash3.seqHash(Seq(s.pPlus, s.pMinus, s.parent.toSeq, s.alive.toSeq,
                            r.totalMerges, r.snapshots))
  }

  def digest(s: HierSummary): Int =
    MurmurHash3.seqHash(Seq(s.pPlus, s.pMinus, s.parent.toSeq, s.alive.toSeq))

  def check(label: String, r: Slugger.Result, expected: Int): Unit =
    assert(digest(r) == expected, s"$label: digest ${digest(r)}, recorded $expected")

  def check(label: String, s: HierSummary, expected: Int): Unit =
    assert(digest(s) == expected, s"$label: digest ${digest(s)}, recorded $expected")

  test("local SLUGGER on the PR stand-in at T=10 matches its recorded output") {
    val g = LocalGraph.fromDF(Datasets.byName("PR").gen(spark, 1.0))
    check("PR", Slugger.summarize(g, Slugger.Config(T = 10)), -1701358110)
  }

  test("local SLUGGER on cliques plus noise at H_b=3 matches its recorded output") {
    val g = LocalGraph.fromDF(GraphGen.cliqueUnion(spark, 12, 8, 60, seed = 9))
    check("cliques", Slugger.summarize(g, Slugger.Config(T = 10, heightBound = 3)), 2144207776)
  }

  test("local SLUGGER on ER(200,600) with maxGroupSize 16 matches its recorded output") {
    val g = LocalGraph.fromDF(GraphGen.erdosRenyi(spark, 200, 600))
    check("ER", Slugger.summarize(g, Slugger.Config(T = 10, maxGroupSize = 16)), -1050165884)
  }

  test("distributed SLUGGER on a clique union matches its recorded output") {
    val edges = GraphGen.cliqueUnion(spark, 12, 8, 60, seed = 9)
    check("spark", SluggerSpark.summarize(spark, edges, Slugger.Config(T = 6, maxGroupSize = 16)), 1821491606)
  }

  test("the four baselines on the PR stand-in match their recorded outputs") {
    val g = LocalGraph.fromDF(Datasets.byName("PR").gen(spark, 1.0))
    check("RANDOMIZED", Randomized.summarize(g), 2010658750)
    check("SWEG", Sweg.summarize(g, 10, 42), 1732307223)
    check("SAGS", Sags.summarize(g), -1501764964)
    check("MOSSO-LITE", MossoLite.summarize(g), -1137636431)
  }
}
