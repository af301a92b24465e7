package repro.core

import repro.SparkSpec
import repro.bench.Datasets
import repro.core.local.Slugger
import repro.core.spark.SluggerSpark
import repro.graph.{GraphGen, LocalGraph}
import scala.util.hashing.MurmurHash3

/** Bit-identity guard for refactors of the merge path: a hash of the whole
  * output — `pPlus` and `pMinus` in order, `parent`, `alive`, `totalMerges`
  * and the Table IV snapshots — on four fixed inputs. The expected values
  * were recorded from the implementation before panel shapes were shared
  * between candidate pairs; a change that alters any summary fails here.
  */
class GoldenOutputSpec extends SparkSpec {

  def digest(r: Slugger.Result): Int = {
    val s = r.summary
    MurmurHash3.seqHash(Seq(s.pPlus, s.pMinus, s.parent.toSeq, s.alive.toSeq,
                            r.totalMerges, r.snapshots))
  }

  def check(label: String, r: Slugger.Result, expected: Int): Unit =
    assert(digest(r) == expected, s"$label: digest ${digest(r)}, recorded $expected")

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
    check("spark", SluggerSpark.summarize(spark, edges, Slugger.Config(T = 6, maxGroupSize = 16)), -1297974476)
  }
}
