package repro.perfbench

import java.lang.management.ManagementFactory
import java.lang.ref.Reference
import repro.baselines.Sweg
import repro.bench.{Datasets, Harness}
import repro.core.encode.MinCover
import repro.core.local.Slugger
import repro.core.model.HierSummary
import repro.core.spark.{CandidateGenSpark, SluggerSpark}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** One run of the SLUGGER benchmark:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * With `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
  * per-layer metrics of a traced run. The last stdout line is one JSON
  * object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
  * non-zero if any check failed. Each run is a fresh JVM, so the
  * process-global `MinCover` memo starts empty on every workload.
  */
object Main {

  final case class Metric(name: String, value: Double, unit: String)

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument '${other.mkString(" ")}'")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace")
    if (opts.keySet != known) usage(s"need exactly --${known.mkString(", --")}")
    val w = Workloads.byName(opts("workload"))
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    require(seed >= 0, "--seed must be >= 0")
    require(seconds > 0, "--seconds must be > 0")

    val checks = new Checks
    val in = Inputs.build(w, seed)
    val metrics =
      if (trace) perLayer(w, in, checks)
      else endToEnd(w, in, new Random(seed), seconds, checks)
    in.spark.stop()

    println(s"# perfbench workload=${w.name} dataset=${w.dataset}x${w.scale} T=${w.bigT} " +
      s"seed=$seed trace=${if (trace) 1 else 0} nproc=${Runtime.getRuntime.availableProcessors()} " +
      s"spark=local[${Inputs.cores}] java=${System.getProperty("java.version")} " +
      s"n=${in.g.n} m=${in.g.m}")
    print(Harness.markdown(Seq("metric", "value", "unit"),
      metrics.map(m => Seq(m.name, m.value.toString, m.unit))))
    checks.failures.foreach(f => Console.err.println(s"CHECK FAILED: $f"))
    println(json(checks, metrics))
    sys.exit(if (checks.failed == 0) 0 else 1)
  }

  private def usage(why: String): Nothing = {
    Console.err.println(s"perfbench: $why\nusage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  private def json(checks: Checks, metrics: Seq[Metric]): String = {
    metrics.foreach(m => require(!m.value.isNaN && !m.value.isInfinite, s"${m.name} is ${m.value}"))
    val body = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": ${checks.failed == 0}, "attempted": ${checks.attempted}, """ +
      s""""failed": ${checks.failed}, "metrics": {${body.mkString(", ")}}}"""
  }

  /** Used heap after a full collection, in MB. */
  private def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def summarize(w: Workload, in: Inputs): HierSummary =
    if (w.spark) SluggerSpark.summarize(in.spark, in.edges, w.config).summary
    else Slugger.summarize(in.g, w.config).summary

  /** Warm summarize calls a run times at least, however long they take. */
  val MinWarmCalls = 3

  /** Untimed read-path seconds before timed ones: the JIT compiles the query
    * code during the first seconds of querying, and those calls run slower.
    */
  val ReadPathWarmUpS = 2.0

  /** One round: a warm summarize call, then neighbor queries on the first
    * summary for a quarter as long, so that both sample the whole run.
    */
  private def round(w: Workload, in: Inputs, first: HierSummary, truth: Set[(Int, Int)],
                    rp: ReadPath, checks: Checks): (HierSummary, Double) = {
    val (s, dt) = Stats.timed(summarize(w, in))
    checks.lossless("warm summarize", s, truth)
    checks.expect(s"rel_size changed between calls: cost ${s.cost} vs ${first.cost}", s.cost == first.cost)
    rp.queries(dt / 4)
    (s, dt)
  }

  /** The first summarize call (empty memo), untimed queries and the
    * workload's `warmUpCalls` untimed rounds, then timed rounds for
    * `seconds` (and at least [[MinWarmCalls]]).
    */
  def endToEnd(w: Workload, in: Inputs, rng: Random, seconds: Double, checks: Checks): Seq[Metric] = {
    val truth = in.g.edgeSet
    checks.expect("MinCover memo not empty before the first call", MinCover.memoSize == 0)
    val (first, firstS) = Stats.timed(summarize(w, in))
    checks.lossless("first summarize", first, truth)

    val rp = new ReadPath(first, in.g, rng, checks)
    rp.queries(ReadPathWarmUpS)
    val warmUp = Seq.fill(w.warmUpCalls)(round(w, in, first, truth, rp, checks)._2)
    rp.clear()

    val warm = mutable.ArrayBuffer.empty[Double]
    var last = first
    val t0 = System.nanoTime()
    while (warm.length < MinWarmCalls || Stats.seconds(t0) < seconds) {
      val (s, dt) = round(w, in, first, truth, rp, checks)
      warm += dt
      last = s
    }
    def secs(xs: Iterable[Double]) = xs.map(x => f"$x%.3f").mkString(" ")
    println(s"# samples: set-ups ${Inputs.SetupReps}, summarize 1 cold + ${warmUp.length} warm-up + " +
      s"${warm.length} timed, neighbor queries ${rp.neighborS.length}")
    println(f"# summarize seconds: first $firstS%.3f, warm-up ${secs(warmUp)}, timed ${secs(warm)}")
    val readPath = queryMetrics(rp.neighborS.toSeq)
    rp.clear()
    val heapMb = retainedHeapMb()
    Reference.reachabilityFence(first); Reference.reachabilityFence(last)
    Reference.reachabilityFence(in)

    Seq(
      Metric("summarize_s", Stats.median(warm.toSeq), "s"),
      Metric("first_summarize_s", firstS, "s"),
      Metric("rel_size", first.cost.toDouble / in.g.m, "ratio"),
      Metric("setup_s", in.setupS, "s"),
      Metric("heap_retained_mb", heapMb, "MB"),
    ) ++ readPath
  }

  private def queryMetrics(seconds: Seq[Double]): Seq[Metric] = Seq(
    Metric("query_p50_us", Stats.median(seconds) * 1e6, "us"),
    Metric("query_p99_us", Stats.quantile(seconds, 0.99) * 1e6, "us"),
  )

  /** Traced run: per-layer times and counts, each layer entered through its
    * public functions from here, without changes to the program.
    */
  def perLayer(w: Workload, in: Inputs, checks: Checks): Seq[Metric] = {
    val g = in.g
    val cfg = w.config
    val truth = g.edgeSet

    def edgeRows(df: org.apache.spark.sql.DataFrame): Set[(Long, Long)] =
      df.collect().iterator.map(r => (r.getLong(0), r.getLong(1))).toSet
    checks.expect(s"${w.name} at seed 0 is not Datasets' ${w.dataset} stand-in",
      edgeRows(w.edges(in.spark, 0)) == edgeRows(Datasets.byName(w.dataset).gen(in.spark, w.scale)))

    // Cold call fills the memo; the untraced warm call is the overhead base.
    checks.expect("MinCover memo not empty before the first call", MinCover.memoSize == 0)
    val ref = Slugger.summarize(g, cfg)
    val memoKeys = MinCover.memoSize
    checks.lossless("reference summarize", ref.summary, truth)
    val (warm, untracedS) = Stats.timed(Slugger.summarize(g, cfg))
    checks.expect(s"rel_size changed between calls: cost ${warm.summary.cost} vs ${ref.summary.cost}",
      warm.summary.cost == ref.summary.cost)
    val tr = TracedSlugger.summarize(g, cfg)
    val (rs, ts) = (ref.summary, tr.summary)
    checks.expect(s"traced summary differs: cost ${ts.cost}/${rs.cost}, " +
      s"p ${ts.pPlus.size}/${rs.pPlus.size}, n ${ts.pMinus.size}/${rs.pMinus.size}, " +
      s"h ${ts.hEdgeCount}/${rs.hEdgeCount}, merges ${tr.merges}/${ref.totalMerges}",
      ts.cost == rs.cost && ts.pPlus.size == rs.pPlus.size && ts.pMinus.size == rs.pMinus.size &&
        ts.hEdgeCount == rs.hEdgeCount && tr.merges == ref.totalMerges)
    checks.expect("traced summary decompresses differently", ts.decompress == rs.decompress)
    val coverage = tr.spans.coveredSeconds / tr.wallS
    checks.expect(f"layer spans cover only ${coverage * 100}%.1f%% of the traced run", coverage >= 0.95)

    val (_, decompressS) = Stats.timed(rs.decompress)
    val (_, indexS) = Stats.timed(rs.copy().incidentIndex)
    val leafVisits = (0 until g.n).iterator.map(TracedSlugger.leafVisits(rs, _)).sum.toDouble / g.n

    val rng = new Random(1)
    val csrQuery = (0 until 20000).map { _ =>
      val v = rng.nextInt(g.n)
      Stats.timed(g.adj(v).toSet)._2
    }
    val csrBfs = (0 until 5).map(_ => Stats.timed(Csr.bfs(g, rng.nextInt(g.n)))._2)
    val csrRank = (0 until 5).map(_ => Stats.timed(Csr.pageRank(g))._2)
    val rp = new ReadPath(rs, g, rng, checks)
    rp.algorithms(ReadPathWarmUpS)
    rp.clear()
    rp.algorithms(3.0)

    val (sweg, swegS) = Stats.timed(Sweg.summarize(g, cfg.T, cfg.seed))
    checks.lossless("SWEG", sweg, truth)

    val spark = in.spark
    import spark.implicits._
    val dense = LocalGraph.toDF(spark, g).cache()
    dense.count()
    val members = (0 until g.n).map(u => (u, u)).toDF("sub", "root").cache()
    members.count()
    val (_, assignS) = Stats.timed(CandidateGenSpark.assign(spark, dense, members,
      cfg.seed + 7919L, cfg.maxGroupSize, g.n.toLong).collect())
    val sp = SluggerSpark.summarize(spark, in.edges, cfg)
    checks.lossless("Spark summarize", sp.summary, truth)

    val spans = tr.spans
    Seq(
      Metric("graph.gen_s", in.genS, "s"),
      Metric("graph.build_s", in.buildS, "s"),
      Metric("state.init_s", spans.seconds("state.init"), "s"),
      Metric("candgen.s", spans.seconds("candgen"), "s"),
      Metric("candgen.groups", tr.groups.toDouble, "count"),
      Metric("candgen.pairs", tr.pairs.toDouble, "count"),
      Metric("candgen.group_max", tr.groupMax.toDouble, "count"),
      Metric("merge.s", spans.seconds("merge"), "s"),
      Metric("merge.merges", tr.merges.toDouble, "count"),
      Metric("merge.accept_per_kpair", tr.merges * 1000.0 / math.max(1L, tr.pairs), "per_kpair"),
      Metric("merge.group_p50_ms", Stats.median(tr.groupSeconds) * 1e3, "ms"),
      Metric("merge.group_max_ms", tr.groupSeconds.max * 1e3, "ms"),
      Metric("merge.slowest_group_share", tr.groupSeconds.max / spans.seconds("merge"), "ratio"),
      Metric("encode.memo_keys", memoKeys.toDouble, "count"),
      Metric("prune.from_state_s", spans.seconds("prune.from_state"), "s"),
      Metric("prune.snapshot_s", spans.seconds("prune.snapshot"), "s"),
      Metric("prune.step1_s", spans.seconds("prune.step1"), "s"),
      Metric("prune.step2_s", spans.seconds("prune.step2"), "s"),
      Metric("prune.step3_s", spans.seconds("prune.step3"), "s"),
      Metric("prune.rounds_s", spans.seconds("prune.rounds"), "s"),
      Metric("prune.to_summary_s", spans.seconds("prune.to_summary"), "s"),
      Metric("prune.step1_removed", tr.step1Removed.toDouble, "count"),
      Metric("prune.step2_removed", tr.step2Removed.toDouble, "count"),
      Metric("prune.step3_changed", tr.step3Changed.toDouble, "count"),
      Metric("model.cost", rs.cost.toDouble, "count"),
      Metric("model.max_height", rs.maxHeight.toDouble, "count"),
      Metric("model.avg_leaf_depth", rs.avgLeafDepth, "levels"),
      Metric("model.decompress_s", decompressS, "s"),
      Metric("model.index_s", indexS, "s"),
      Metric("model.leaf_visits_per_query", leafVisits, "leaves"),
      Metric("algos.bfs_s", Stats.median(rp.bfsS.toSeq), "s"),
      Metric("algos.pagerank_s", Stats.median(rp.rankS.toSeq), "s"),
      Metric("algos.triangles_s", Stats.median(rp.triangleS.toSeq), "s"),
      Metric("spark.assign_s", assignS, "s"),
      Metric("spark.merge_phase_s", sp.mergeMillis / 1e3, "s"),
      Metric("spark.prune_phase_s", sp.pruneMillis / 1e3, "s"),
      Metric("spark.local_summarize_s", untracedS, "s"),
      Metric("baselines.sweg_s", swegS, "s"),
      Metric("baselines.sweg_rel_size", sweg.cost.toDouble / g.m, "ratio"),
      Metric("ref.csr_query_p50_us", Stats.median(csrQuery) * 1e6, "us"),
      Metric("ref.csr_bfs_s", Stats.median(csrBfs), "s"),
      Metric("ref.csr_pagerank_s", Stats.median(csrRank), "s"),
      Metric("trace.overhead", tr.wallS / untracedS - 1, "ratio"),
      Metric("trace.coverage", coverage, "ratio"),
    )
  }
}
