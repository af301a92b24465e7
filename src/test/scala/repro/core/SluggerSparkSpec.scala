package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.local.{CandidateGen, Slugger}
import repro.core.model.HierSummary
import repro.core.spark.{CandidateGenSpark, GroupState, GroupTask, SluggerSpark, SparkSummary}
import repro.graph.{GraphGen, LocalGraph}

/** Distributed SLUGGER: the driver's candidate sets become one RDD job of
  * group tasks per iteration, replayed in order; DataFrame decompression and
  * the DuckDB reconstruction oracle check the output. The DataFrame
  * candidate generator (`CandidateGenSpark`, off the summarize path) keeps
  * its own tests.
  */
class SluggerSparkSpec extends SparkSpec {

  def membersOf(g: LocalGraph): org.apache.spark.sql.DataFrame = {
    import spark.implicits._
    (0 until g.n).map(u => (u, u)).toDF("sub", "root")
  }

  // ---- CandidateGenSpark ----------------------------------------------------

  test("DataFrame grouping covers all roots exactly once") {
    val edges = GraphGen.erdosRenyi(spark, 200, 500)
    val g = LocalGraph.fromDF(edges)
    val rows = CandidateGenSpark.assign(spark, LocalGraph.toDF(spark, g), membersOf(g), seed = 3)
      .collect().map(r => (r.getInt(0), r.getLong(1)))
    assert(rows.map(_._1).distinct.length == rows.length, "a root was assigned twice")
    assert(rows.length == g.n)
  }

  test("DataFrame grouping respects the size cap") {
    val edges = GraphGen.cliqueUnion(spark, 30, 10, 100, seed = 5)
    val g = LocalGraph.fromDF(edges)
    val rows = CandidateGenSpark.assign(spark, LocalGraph.toDF(spark, g), membersOf(g),
      seed = 3, maxSize = 40).collect().map(r => (r.getInt(0), r.getLong(1)))
    rows.groupBy(_._2).foreach { case (k, grp) =>
      assert(grp.length <= 40, s"group $k has ${grp.length} roots")
    }
  }

  test("DataFrame grouping puts twins together (same shingle)") {
    val g = LocalGraph.fromEdges(
      (for (t <- 0 to 1; o <- 2 to 6) yield (t.toLong, o.toLong)) ++ Seq((7L, 8L)))
    val rows = CandidateGenSpark.assign(spark, LocalGraph.toDF(spark, g), membersOf(g), seed = 3)
      .collect().map(r => (r.getInt(0), r.getLong(1))).toMap
    assert(rows(0) == rows(1), "twins 0 and 1 must share a candidate set")
  }

  // ---- SluggerSpark end-to-end ----------------------------------------------

  test("distributed SLUGGER is lossless on a clique union") {
    val edges = GraphGen.cliqueUnion(spark, 8, 6, 30, seed = 7)
    val g = LocalGraph.fromDF(edges)
    val res = SluggerSpark.summarize(spark, edges, Slugger.Config(T = 4))
    assert(res.summary.decompress == g.edgeSet)
    assert(res.summary.cost < g.m, "cliques must compress")
  }

  test("distributed SLUGGER is lossless on random graphs") {
    for (seed <- 1 to 2) {
      val edges = GraphGen.erdosRenyi(spark, 80, 200, seed)
      val g = LocalGraph.fromDF(edges)
      val res = SluggerSpark.summarize(spark, edges, Slugger.Config(T = 3, seed = seed))
      assert(res.summary.decompress == g.edgeSet, s"seed $seed")
    }
  }

  test("distributed and local SLUGGER reach comparable compression") {
    val edges = GraphGen.cliqueUnion(spark, 12, 8, 60, seed = 9)
    val g = LocalGraph.fromDF(edges)
    val local = Slugger.summarize(g, Slugger.Config(T = 6)).summary.cost
    val dist = SluggerSpark.summarize(spark, edges, Slugger.Config(T = 6)).summary.cost
    assert(dist <= local * 1.25 && local <= dist * 1.25,
      s"local $local vs distributed $dist diverge")
  }

  test("distributed SLUGGER is deterministic for fixed edges and Config") {
    // tasks come in CandidateGen's order and collect keeps it, so replay
    // order does not depend on how the RDD is sliced; on the ragged input
    // (about a tenth of the clique edges dropped) the executor threads share
    // MinCover's memo, whose answers do not depend on which thread asked first
    val cliques = GraphGen.cliqueUnion(spark, 12, 8, 60, seed = 9)
    val ragged = cliques.where(pmod(xxhash64(col("src"), col("dst")), lit(10)) =!= 0)
    val dropped = 1.0 - ragged.count().toDouble / cliques.count()
    assert(dropped > 0.05 && dropped < 0.15, s"dropped $dropped of the edges")
    val cfg = Slugger.Config(T = 6, maxGroupSize = 16)
    for ((name, edges) <- Seq("clique union" -> cliques, "ragged clique union" -> ragged)) {
      val r1 = SluggerSpark.summarize(spark, edges, cfg)
      val r2 = SluggerSpark.summarize(spark, edges, cfg)
      assert(r1.summary.pPlus == r2.summary.pPlus, name)
      assert(r1.summary.pMinus == r2.summary.pMinus, name)
      assert(r1.summary.parent.toSeq == r2.summary.parent.toSeq, name)
      assert(r1.summary.alive.toSeq == r2.summary.alive.toSeq, name)
      assert(r1.totalMerges == r2.totalMerges, name)
    }
  }

  test("each iteration's tasks are CandidateGen's sets in order, on live roots") {
    val inputs = Seq(
      "ER(200,600)" -> LocalGraph.fromDF(GraphGen.erdosRenyi(spark, 200, 600)),
      "clique union" -> LocalGraph.fromDF(GraphGen.cliqueUnion(spark, 12, 8, 60, seed = 9)))
    // No level-0 bucket of either input exceeds 16 roots, so cap 4 is added
    // to make CandidateGen refine and randomly split buckets as well.
    for (cap <- Seq(16, 4); (name, g) <- inputs) {
      val cfg = Slugger.Config(T = 4, maxGroupSize = cap)
      var (t, refined, split, checkedMerged) = (0, false, false, false)
      // SluggerSpark.summarize's iteration, with the tasks run in-process
      val r = Slugger.run(g, cfg) { (st, engine, sets, th, rngSeed) =>
        t += 1
        val at = s"$name, cap $cap, t=$t"
        val seed = cfg.seed + 7919L * t
        assert(sets == CandidateGen.groups(st, seed, cap), at)
        val tasks = sets.map(GroupTask.of(st, _, th, cfg.heightBound, rngSeed))
        assert(tasks.map(_.roots.map(_.id)) == sets.map(_.filter(st.isRoot)), at)
        assert(tasks.forall(k => k.theta == th && k.rngSeed == rngSeed &&
          k.idBase == st.nSupers && k.heightBound == cfg.heightBound), at)

        // refinement runs on a level-0 bucket above the cap; only the random
        // split separates two roots that agree on every shingle level
        val levels = (0 until CandidateGen.MaxRefineLevels).map(CandidateGen.rootShingles(st, seed, _))
        refined ||= levels(0).values.groupBy(identity).values.exists(_.size > cap)
        val setOf = sets.zipWithIndex.flatMap { case (d, i) => d.map(_ -> i) }.toMap
        split ||= levels(0).keys.groupBy(r => levels.map(_(r))).values
          .exists(_.map(setOf.get).toSeq.distinct.size > 1)
        checkedMerged ||= st.nSupers > g.n

        SluggerSpark.replay(st, engine, tasks.map(GroupState.run))
      }
      assert(t == cfg.T)
      assert(r.totalMerges > 0, s"$name, cap $cap: no merge was replayed")
      if (cap == 4) assert(refined, s"$name: no bucket was refined")
      if (name == "clique union") {
        assert(checkedMerged, s"cap $cap: no set was checked after a merge")
        if (cap == 4) assert(split, "no bucket was split at random")
      }
    }
  }

  test("distributed SLUGGER rejects maxGroupSize below 2 with a message naming the field") {
    val edges = GraphGen.cliqueUnion(spark, 2, 4, 0, seed = 1)
    for (k <- Seq(0, 1)) {
      val e = intercept[IllegalArgumentException](
        SluggerSpark.summarize(spark, edges, Slugger.Config(maxGroupSize = k)))
      assert(e.getMessage.contains("maxGroupSize"), e.getMessage)
    }
  }

  test("distributed SLUGGER rejects T and heightBound below 1 with messages naming the field") {
    val edges = GraphGen.cliqueUnion(spark, 2, 4, 0, seed = 1)
    for (k <- Seq(0, -1)) {
      val eT = intercept[IllegalArgumentException](
        SluggerSpark.summarize(spark, edges, Slugger.Config(T = k)))
      assert(eT.getMessage.contains("Config.T "), eT.getMessage)
      val eH = intercept[IllegalArgumentException](
        SluggerSpark.summarize(spark, edges, Slugger.Config(heightBound = k)))
      assert(eH.getMessage.contains("heightBound"), eH.getMessage)
    }
  }

  test("local and distributed SLUGGER are lossless on an empty graph and a single edge") {
    import spark.implicits._
    val cfg = Slugger.Config(T = 1, maxGroupSize = 2)
    for (pairs <- Seq(Seq.empty[(Long, Long)], Seq((0L, 1L)))) {
      val edges = pairs.toDF("src", "dst")
      val g = LocalGraph.fromDF(edges)
      assert(Slugger.summarize(g, cfg).summary.decompress == g.edgeSet, s"local on $pairs")
      assert(SluggerSpark.summarize(spark, edges, cfg).summary.decompress == g.edgeSet,
        s"distributed on $pairs")
    }
  }

  test("DataFrame decompression of the distributed summary equals the input") {
    val edges = GraphGen.bipartiteCores(spark, 4, 4, 8, 20, seed = 11)
    val g = LocalGraph.fromDF(edges)
    val res = SluggerSpark.summarize(spark, edges, Slugger.Config(T = 4))
    val decoded = SparkSummary.decompressDF(SparkSummary.toFrames(spark, res.summary))
    val diff = decoded.exceptAll(LocalGraph.toDF(spark, g))
      .unionByName(LocalGraph.toDF(spark, g).exceptAll(decoded))
    assert(diff.isEmpty, "DataFrame decompression mismatch")
  }

  // ---- DuckDB reconstruction oracle -----------------------------------------

  /** Rebuild the graph from (pn, hier, sing) in DuckDB with a recursive CTE
    * and require equality with the Spark-side decompression.
    */
  def duckReconstructs(summary: HierSummary): Unit = {
    import spark.implicits._
    val fr = SparkSummary.toFrames(spark, summary)
    val sing = (0 until summary.nSub).toDF("sub")
    val sparkSide = SparkSummary.decompressDF(fr)
      .select(col("src").cast("long"), col("dst").cast("long"))
    Oracle.assertEquivalent(sparkSide,
      """WITH RECURSIVE closure(sup, sub) AS (
        |  SELECT CAST(sub AS BIGINT), CAST(sub AS BIGINT) FROM sing
        |  UNION ALL
        |  SELECT CAST(h.parent AS BIGINT), c.sub
        |  FROM hier h JOIN closure c ON CAST(h.child AS BIGINT) = c.sup
        |), expanded AS (
        |  SELECT l1.sub AS u, l2.sub AS v, CAST(p.sign AS INT) AS sign,
        |         CASE WHEN CAST(p.x AS BIGINT) = CAST(p.y AS BIGINT)
        |              THEN 0.5 ELSE 1.0 END AS w
        |  FROM pn p
        |  JOIN closure l1 ON l1.sup = CAST(p.x AS BIGINT)
        |  JOIN closure l2 ON l2.sup = CAST(p.y AS BIGINT)
        |  WHERE l1.sub <> l2.sub
        |)
        |SELECT LEAST(u, v) AS src, GREATEST(u, v) AS dst
        |FROM expanded GROUP BY 1, 2 HAVING SUM(sign * w) >= 0.5""".stripMargin,
      "pn" -> fr.pn, "hier" -> fr.hier, "sing" -> sing)
  }

  test("DuckDB recursive-CTE reconstruction matches Spark (local summary)") {
    val g = LocalGraph.fromDF(GraphGen.cliqueUnion(spark, 5, 6, 20, seed = 13))
    duckReconstructs(Slugger.summarize(g, Slugger.Config(T = 8)).summary)
  }

  test("DuckDB recursive-CTE reconstruction matches Spark (distributed summary)") {
    val edges = GraphGen.erdosRenyi(spark, 60, 150, seed = 17)
    duckReconstructs(SluggerSpark.summarize(spark, edges, Slugger.Config(T = 3)).summary)
  }

  test("DuckDB reconstruction matches on the Fig. 2 hand-built model") {
    val s = HierSummary(
      nSub = 6,
      parent = Array(7, 7, 6, 6, -1, -1, 7, -1),
      alive = Array.fill(8)(true),
      pPlus = Seq((5, 7), (6, 6)),
      pMinus = Seq((5, 6)))
    duckReconstructs(s)
  }
}
