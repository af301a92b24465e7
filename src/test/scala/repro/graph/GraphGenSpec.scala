package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Generator contracts: canonical output, determinism, expected structure. */
class GraphGenSpec extends SparkSpec {

  def assertCanonical(name: String, df: org.apache.spark.sql.DataFrame): Unit = {
    val bad = df.where(col("src") >= col("dst")).count()
    assert(bad == 0, s"$name: src<dst violated")
    assert(df.count() == df.distinct().count(), s"$name: duplicates")
  }

  test("erdosRenyi is canonical and close to requested size") {
    val df = GraphGen.erdosRenyi(spark, 500, 2000)
    assertCanonical("er", df)
    val m = df.count()
    assert(m > 1500 && m <= 2000, s"got $m edges")
  }

  test("erdosRenyi is deterministic in its seed") {
    val a = GraphGen.erdosRenyi(spark, 300, 900, seed = 5).collect().toSet
    val b = GraphGen.erdosRenyi(spark, 300, 900, seed = 5).collect().toSet
    val c = GraphGen.erdosRenyi(spark, 300, 900, seed = 6).collect().toSet
    assert(a == b)
    assert(a != c)
  }

  test("prefAttach produces a heavy tail toward early nodes") {
    val df = GraphGen.prefAttach(spark, 2000, 2)
    assertCanonical("ba", df)
    val lowIdDeg = df.where(col("src") < 100 || col("dst") < 100).count()
    assert(lowIdDeg.toDouble / df.count() > 0.2, "early nodes should attract many edges")
  }

  test("cliqueUnion contains every clique edge") {
    val df = GraphGen.cliqueUnion(spark, 10, 5, 0)
    assertCanonical("cliques", df)
    assert(df.count() == 10 * 10) // 10 cliques x C(5,2)
  }

  test("bipartiteCores builds complete cores") {
    val df = GraphGen.bipartiteCores(spark, 4, 3, 5, 0)
    assertCanonical("cores", df)
    assert(df.count() == 4 * 3 * 5)
  }

  test("canonical() drops self-loops, duplicates and directions") {
    val raw = Seq((1L, 2L), (2L, 1L), (3L, 3L), (1L, 2L), (5L, 4L))
    assert(LocalGraph.canonical(raw) == Set((1L, 2L), (4L, 5L)))
  }

  test("prefAttach with d = 0 links no node") {
    assert(GraphGen.prefAttach(spark, 10, 0).count() == 0)
    assert(GraphGen.prefAttach(spark, 10, 1).count() > 0)
  }

  test("generators reject negative sizes and draws with no node to land on") {
    def rejects(gen: => Any, names: String*): Unit = {
      val e = intercept[IllegalArgumentException](gen)
      names.foreach(w => assert(e.getMessage.contains(w), s"'${e.getMessage}' does not name $w"))
    }
    rejects(GraphGen.erdosRenyi(spark, 0, 10), "erdosRenyi", "n = 0")
    rejects(GraphGen.erdosRenyi(spark, 5, -1), "erdosRenyi", "m = -1")
    rejects(GraphGen.prefAttach(spark, -3, 2), "prefAttach", "n = -3")
    rejects(GraphGen.prefAttach(spark, 10, -1), "prefAttach", "d = -1")
    rejects(GraphGen.cliqueUnion(spark, 0, 5, 10), "cliqueUnion", "nCliques = 0")
    rejects(GraphGen.cliqueUnion(spark, 3, 0, 10), "cliqueUnion", "cliqueSize = 0")
    rejects(GraphGen.cliqueUnion(spark, 3, -2, 0), "cliqueUnion", "cliqueSize = -2")
    rejects(GraphGen.cliqueUnion(spark, 3, 4, -1), "cliqueUnion", "bridges = -1")
    rejects(GraphGen.bipartiteCores(spark, 0, 3, 4, 5), "bipartiteCores", "nCores = 0")
    rejects(GraphGen.bipartiteCores(spark, 2, 0, 0, 5), "bipartiteCores", "a + b = 0")
    rejects(GraphGen.bipartiteCores(spark, 2, -1, 4, 0), "bipartiteCores", "a = -1")
    rejects(GraphGen.bipartiteCores(spark, 2, 3, 4, -5), "bipartiteCores", "noise = -5")
  }

  test("sizes with nothing to draw give empty graphs") {
    assert(GraphGen.erdosRenyi(spark, 0, 0).count() == 0)
    assert(GraphGen.erdosRenyi(spark, 5, 0).count() == 0)
    assert(GraphGen.prefAttach(spark, 0, 2).count() == 0)
    assert(GraphGen.cliqueUnion(spark, 0, 5, 0).count() == 0)
    assert(GraphGen.bipartiteCores(spark, 0, 3, 4, 0).count() == 0)
  }

  test("degree distribution agrees with DuckDB oracle") {
    val edges = GraphGen.erdosRenyi(spark, 200, 600).cache()
    val deg = edges.select(col("src").as("v")).unionByName(edges.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).cast("long").as("deg"))
      .groupBy("deg").agg(count(lit(1)).cast("long").as("cnt"))
    Oracle.assertEquivalent(deg,
      """WITH d AS (
        |  SELECT v, COUNT(*)::BIGINT AS deg FROM (
        |    SELECT CAST(src AS BIGINT) AS v FROM edges
        |    UNION ALL SELECT CAST(dst AS BIGINT) AS v FROM edges
        |  ) GROUP BY v
        |) SELECT deg, COUNT(*)::BIGINT AS cnt FROM d GROUP BY deg""".stripMargin,
      "edges" -> edges)
  }

  test("triangle count of a clique union agrees with DuckDB oracle") {
    val edges = GraphGen.cliqueUnion(spark, 6, 4, 0).cache()
    val e = edges
    val tri = e.as("a")
      .join(e.as("b"), col("a.dst") === col("b.src"))
      .join(e.as("c"), col("b.dst") === col("c.dst") && col("a.src") === col("c.src"))
      .agg(count(lit(1)).cast("long").as("triangles"))
    Oracle.assertEquivalent(tri,
      """SELECT COUNT(*)::BIGINT AS triangles
        |FROM edges a JOIN edges b ON CAST(a.dst AS BIGINT) = CAST(b.src AS BIGINT)
        |JOIN edges c ON CAST(b.dst AS BIGINT) = CAST(c.dst AS BIGINT)
        |            AND CAST(a.src AS BIGINT) = CAST(c.src AS BIGINT)""".stripMargin,
      "edges" -> edges)
  }
}
