package repro.bench

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graph.LocalGraph
import scala.util.hashing.MurmurHash3

/** The 16 synthetic stand-ins: canonical, non-trivial, deterministic. */
class DatasetsSpec extends SparkSpec {

  for (spec <- Datasets.all) {
    test(s"${spec.name} (${spec.summary}) generates a canonical non-trivial graph") {
      val df = spec.gen(spark, 0.5).cache()
      assert(df.where(col("src") >= col("dst")).count() == 0)
      assert(df.count() == df.distinct().count())
      val g = LocalGraph.fromDF(df)
      assert(g.m >= 50, s"${spec.name} too small: ${g.m}")
      assert(g.n >= 10)
      df.unpersist()
    }
  }

  // MurmurHash3.unorderedHash of each stand-in's edge set at scale 1, as
  // (src, dst) pairs; recorded from the Spark SQL generators that the
  // plain-Scala ones replaced.
  private val edgeSetHash = Map(
    "CA" -> -259596549, "FA" -> -846228596, "PR" -> 1833494264, "EM" -> 1996255912,
    "DB" -> 340410127, "AM" -> 1561939013, "CN" -> 1039819207, "YO" -> 1381130199,
    "SK" -> -944979720, "EU" -> -741558563, "ES" -> 515602144, "LJ" -> 378768284,
    "HO" -> -1710720629, "IC" -> -2119802944, "U2" -> -989272753, "U5" -> -890525644)

  test("every stand-in at scale 1 has its recorded edge set") {
    val got = Datasets.all.map { spec =>
      spec.name -> MurmurHash3.unorderedHash(
        spec.gen(spark, 1.0).collect().iterator.map(r => (r.getLong(0), r.getLong(1))).toSet)
    }.toMap
    assert(got == edgeSetHash)
  }

  test("generation is deterministic per dataset") {
    val a = Datasets.byName("PR").gen(spark, 0.5).collect().toSet
    val b = Datasets.byName("PR").gen(spark, 0.5).collect().toSet
    assert(a == b)
  }

  test("scale grows the graphs") {
    val small = Datasets.byName("EM").gen(spark, 0.3).count()
    val big = Datasets.byName("EM").gen(spark, 1.0).count()
    assert(big > small)
  }

  test("byName rejects unknown datasets") {
    intercept[NoSuchElementException](Datasets.byName("nope"))
  }

  test("all 16 paper datasets are represented") {
    assert(Datasets.all.map(_.name).toSet ==
      Set("CA", "FA", "PR", "EM", "DB", "AM", "CN", "YO", "SK", "EU", "ES", "LJ", "HO", "IC", "U2", "U5"))
  }
}
