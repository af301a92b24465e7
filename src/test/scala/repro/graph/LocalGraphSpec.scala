package repro.graph

import repro.SparkSpec

class LocalGraphSpec extends SparkSpec {

  test("fromEdges canonicalizes: loops, duplicates, direction") {
    val g = LocalGraph.fromEdges(Seq((1L, 2L), (2L, 1L), (3L, 3L), (2L, 4L), (4L, 2L)))
    assert(g.m == 2)
    assert(g.edgeSet.size == 2)
  }

  test("ids are densified but preserved") {
    val g = LocalGraph.fromEdges(Seq((10L, 20L), (20L, 30L)))
    assert(g.n == 3)
    assert(g.ids.toSeq == Seq(10L, 20L, 30L))
  }

  test("adjacency is sorted and symmetric") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (0L, 2L), (1L, 2L), (2L, 3L)))
    (0 until g.n).foreach { v =>
      assert(g.adj(v).toSeq == g.adj(v).toSeq.sorted)
      g.adj(v).foreach(u => assert(g.hasEdge(u, v)))
    }
  }

  test("degree and hasEdge agree with the edge set") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    assert(g.degree(0) == 2 && g.degree(1) == 2 && g.degree(2) == 2)
    assert(g.hasEdge(0, 1) && !g.hasEdge(0, 3 - 3))
  }

  test("edges iterator yields each undirected edge once, u < v") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L), (2L, 3L)))
    val es = g.edges.toSeq
    assert(es.length == 4)
    es.foreach { case (u, v) => assert(u < v) }
  }

  test("DataFrame round-trip preserves the edge set") {
    val df = GraphGen.erdosRenyi(spark, 100, 300)
    val g = LocalGraph.fromDF(df)
    val back = LocalGraph.fromDF(LocalGraph.toDF(spark, g))
    assert(back.m == g.m && back.n == g.n)
    assert(back.edgeSet == g.edgeSet)
  }

  test("fromDF rejects a frame without a src or dst column, naming the column") {
    import spark.implicits._
    for ((df, col) <- Seq(Seq((1L, 2L)).toDF("from", "dst") -> "src", Seq((1L, 2L)).toDF("src", "to") -> "dst")) {
      val e = intercept[IllegalArgumentException](LocalGraph.fromDF(df))
      assert(e.getMessage.contains(s"BIGINT column $col, found no such column"), e.getMessage)
    }
  }

  test("fromDF rejects a src or dst column that is not BIGINT, naming the column and its type") {
    import spark.implicits._
    val e = intercept[IllegalArgumentException](LocalGraph.fromDF(Seq((1, 2L)).toDF("src", "dst")))
    assert(e.getMessage.contains("BIGINT column src, found INT"), e.getMessage)
    val e2 = intercept[IllegalArgumentException](LocalGraph.fromDF(Seq((1L, "2")).toDF("src", "dst")))
    assert(e2.getMessage.contains("BIGINT column dst, found STRING"), e2.getMessage)
  }

  test("empty-ish graph handled") {
    val g = LocalGraph.fromEdges(Seq((7L, 7L))) // only a self-loop -> empty
    assert(g.n == 0 && g.m == 0)
  }
}
