package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.local.{Metrics, Slugger}
import repro.graph.LocalGraph

/** One reproduction routine per table/figure of the evaluation section,
  * each called by its bench suite. Every routine but [[scalability]] runs
  * the 16 stand-ins at [[Datasets.defaultScale]]; each prints a markdown
  * table with the paper's numbers alongside the measured ones and persists
  * it under results/.
  */
object Tables {

  val TSweep: Seq[Int] = Seq(1, 5, 10, 20, 40, 80)
  val HbSweep: Seq[Int] = Seq(2, 5, 7, 10, Int.MaxValue)

  /** Paper Table III: relative size per (dataset, T). */
  val paperTableIII: Map[String, Seq[Double]] = Map(
    "PR" -> Seq(0.147, 0.098, 0.095, 0.094, 0.093, 0.093),
    "EM" -> Seq(0.842, 0.805, 0.760, 0.743, 0.736, 0.734),
    "AM" -> Seq(0.776, 0.731, 0.708, 0.700, 0.697, 0.696),
    "DB" -> Seq(0.734, 0.703, 0.687, 0.678, 0.676, 0.675),
    "HO" -> Seq(0.572, 0.485, 0.445, 0.422, 0.412, 0.408),
    "FA" -> Seq(0.523, 0.456, 0.437, 0.429, 0.427, 0.426),
    "YO" -> Seq(0.962, 0.951, 0.934, 0.917, 0.909, 0.905),
    "ES" -> Seq(0.847, 0.789, 0.747, 0.718, 0.705, 0.701),
    "LJ" -> Seq(0.831, 0.795, 0.762, 0.744, 0.736, 0.734),
    "CA" -> Seq(0.916, 0.873, 0.850, 0.835, 0.827, 0.823),
    "SK" -> Seq(0.698, 0.586, 0.556, 0.542, 0.537, 0.535),
    "CN" -> Seq(0.299, 0.226, 0.219, 0.216, 0.215, 0.214),
    "EU" -> Seq(0.283, 0.206, 0.194, 0.187, 0.183, 0.182),
    "IC" -> Seq(0.155, 0.107, 0.102, 0.101, 0.100, 0.100),
    "U2" -> Seq(0.210, 0.148, 0.144, 0.142, 0.141, 0.141),
    "U5" -> Seq(0.156, 0.113, 0.110, 0.108, 0.108, 0.107),
  )

  /** Paper Table IV: (relSize states 0..3, max height 0 and 3, leaf depth 0 and 3). */
  val paperTableIV: Map[String, (Seq[Double], (Double, Double), (Double, Double))] = Map(
    "PR" -> (Seq(0.115, 0.097, 0.097, 0.094), (50.4, 9.0), (4.57, 1.75)),
    "EM" -> (Seq(0.773, 0.745, 0.745, 0.743), (12.6, 6.2), (1.23, 0.83)),
    "AM" -> (Seq(0.720, 0.705, 0.703, 0.700), (10.0, 6.2), (1.70, 1.37)),
    "DB" -> (Seq(0.746, 0.686, 0.683, 0.679), (27.8, 6.2), (1.42, 0.78)),
    "HO" -> (Seq(0.439, 0.430, 0.430, 0.422), (183.0, 14.8), (4.70, 1.74)),
    "FA" -> (Seq(0.434, 0.430, 0.430, 0.429), (9.6, 8.8), (2.84, 2.50)),
    "YO" -> (Seq(0.936, 0.919, 0.918, 0.917), (17.6, 6.8), (0.38, 0.23)),
    "ES" -> (Seq(0.728, 0.720, 0.720, 0.718), (25.4, 11.0), (2.65, 1.68)),
    "LJ" -> (Seq(0.752, 0.747, 0.745, 0.744), (65.6, 12.0), (1.00, 0.83)),
    "CA" -> (Seq(0.950, 0.837, 0.836, 0.836), (18.8, 4.6), (1.50, 0.48)),
    "SK" -> (Seq(0.577, 0.547, 0.544, 0.542), (22.6, 11.4), (2.03, 1.14)),
    "CN" -> (Seq(0.259, 0.219, 0.218, 0.216), (44.2, 9.6), (2.77, 0.93)),
    "EU" -> (Seq(0.221, 0.197, 0.196, 0.187), (202.0, 9.2), (4.26, 1.61)),
    "IC" -> (Seq(0.126, 0.104, 0.104, 0.101), (502.2, 12.0), (4.20, 1.33)),
    "U2" -> (Seq(0.177, 0.145, 0.144, 0.142), (488.8, 12.4), (4.03, 1.28)),
    "U5" -> (Seq(0.136, 0.110, 0.110, 0.108), (499.8, 13.6), (5.01, 1.36)),
  )

  /** Paper Table V: (avg leaf depth, relative size) per H_b in {2,5,7,10,inf}. */
  val paperTableV: Map[String, (Seq[Double], Seq[Double])] = Map(
    "PR" -> (Seq(0.94, 1.28, 1.42, 1.57, 1.75), Seq(0.194, 0.112, 0.103, 0.099, 0.094)),
    "EM" -> (Seq(0.70, 0.80, 0.80, 0.80, 0.83), Seq(0.757, 0.743, 0.743, 0.743, 0.743)),
    "AM" -> (Seq(1.14, 1.36, 1.37, 1.37, 1.37), Seq(0.722, 0.704, 0.704, 0.704, 0.700)),
    "DB" -> (Seq(0.67, 0.75, 0.75, 0.76, 0.78), Seq(0.722, 0.682, 0.680, 0.679, 0.679)),
    "HO" -> (Seq(1.12, 1.48, 1.67, 1.85, 1.74), Seq(0.503, 0.446, 0.437, 0.433, 0.422)),
    "FA" -> (Seq(1.50, 2.26, 2.42, 2.46, 2.50), Seq(0.463, 0.433, 0.433, 0.432, 0.429)),
    "YO" -> (Seq(0.21, 0.23, 0.23, 0.23, 0.23), Seq(0.924, 0.919, 0.918, 0.918, 0.917)),
    "ES" -> (Seq(1.22, 1.47, 1.56, 1.63, 1.68), Seq(0.742, 0.725, 0.722, 0.721, 0.718)),
    "LJ" -> (Seq(0.71, 0.82, 0.82, 0.83, 0.83), Seq(0.755, 0.747, 0.746, 0.746, 0.744)),
    "CA" -> (Seq(0.44, 0.47, 0.48, 0.48, 0.48), Seq(0.886, 0.845, 0.839, 0.837, 0.836)),
    "SK" -> (Seq(0.84, 1.07, 1.12, 1.14, 1.14), Seq(0.579, 0.547, 0.545, 0.545, 0.542)),
    "CN" -> (Seq(0.69, 0.84, 0.88, 0.87, 0.93), Seq(0.306, 0.231, 0.223, 0.218, 0.216)),
    "EU" -> (Seq(1.10, 1.45, 1.55, 1.62, 1.61), Seq(0.285, 0.206, 0.200, 0.197, 0.187)),
    "IC" -> (Seq(0.89, 1.16, 1.27, 1.33, 1.33), Seq(0.202, 0.119, 0.110, 0.106, 0.101)),
    "U2" -> (Seq(0.91, 1.13, 1.20, 1.24, 1.28), Seq(0.241, 0.158, 0.149, 0.146, 0.142)),
    "U5" -> (Seq(0.96, 1.19, 1.26, 1.31, 1.36), Seq(0.210, 0.125, 0.116, 0.112, 0.108)),
  )

  import Harness._

  /** `measure` on each stand-in at [[Datasets.defaultScale]], in Table II
    * order, keyed by dataset name.
    */
  private def perStandIn[A](spark: SparkSession)(measure: LocalGraph => A): Seq[(String, A)] =
    Datasets.all.map(spec => spec.name -> measure(loadGraph(spark, spec, Datasets.defaultScale)))

  /** Table II: dataset statistics — paper corpus vs synthetic stand-ins. */
  def tableII(spark: SparkSession): Seq[Seq[String]] = {
    val rows = Datasets.all.map { spec =>
      val g = loadGraph(spark, spec, Datasets.defaultScale)
      Seq(spec.name, spec.summary,
          spec.paper.nodes.toString, spec.paper.edges.toString,
          g.n.toString, g.m.toString)
    }
    report("table2", "Table II — datasets (paper corpus vs synthetic stand-in)",
      Seq("Name", "Summary", "paper #nodes", "paper #edges", "ours #nodes", "ours #edges"), rows)
    rows
  }

  /** Table III: effect of the iteration number T on relative size. */
  def tableIII(spark: SparkSession): Map[String, Seq[Double]] = {
    val measured = perStandIn(spark)(g =>
      TSweep.map(t => Slugger.summarize(g, Slugger.Config(T = t)).summary.relativeSize(g.m)))
    val rows = measured.map { case (name, ours) =>
      name +: TSweep.indices.map(i => s"${fmt(ours(i))} (${paperTableIII(name)(i)})")
    }
    report("table3", "Table III — relative size vs iterations T, ours (paper)",
      "Data" +: TSweep.map(t => s"T=$t"), rows)
    measured.toMap
  }

  /** Table IV: pruning substeps — relative size / max height / leaf depth. */
  def tableIV(spark: SparkSession): Map[String, Seq[(String, Metrics)]] = {
    val measured = perStandIn(spark)(g => Slugger.summarize(g, Slugger.Config(T = 20)).snapshots)
    val rows = measured.map { case (name, snaps) =>
      val (pRel, pH, pD) = paperTableIV(name)
      Seq(name) ++
        snaps.map { case (_, met) => fmt(met.relSize) } ++
        Seq(pRel.map(v => f"$v%.3f").mkString("/")) ++
        Seq(s"${snaps.head._2.maxHeight}->${snaps.last._2.maxHeight}", f"${pH._1}%.1f->${pH._2}%.1f") ++
        Seq(f"${snaps.head._2.avgLeafDepth}%.2f->${snaps.last._2.avgLeafDepth}%.2f", f"${pD._1}%.2f->${pD._2}%.2f")
    }
    report("table4", "Table IV — pruning substeps (states 0..3)",
      Seq("Data", "rel 0", "rel 1", "rel 2", "rel 3", "paper rel 0/1/2/3",
          "height 0->3", "paper height", "depth 0->3", "paper depth"), rows)
    measured.toMap
  }

  /** Table V: height bound H_b — avg leaf depth and relative size. */
  def tableV(spark: SparkSession): Map[String, Seq[(Double, Double)]] = {
    val measured = perStandIn(spark)(g => HbSweep.map { hb =>
      val s = Slugger.summarize(g, Slugger.Config(T = 20, heightBound = hb)).summary
      (s.avgLeafDepth, s.relativeSize(g.m))
    })
    val rows = measured.map { case (name, ours) =>
      val (pD, pR) = paperTableV(name)
      name +: ours.zipWithIndex.map { case ((d, r), i) => f"$d%.2f/${r}%.3f (${pD(i)}%.2f/${pR(i)}%.3f)" }
    }
    report("table5", "Table V — height bound H_b: depth/relative size, ours (paper)",
      "Data" +: HbSweep.map(h => if (h == Int.MaxValue) "H_b=inf" else s"H_b=$h"), rows)
    measured.toMap
  }

  /** Fig. 5(a)/1(a) as a table: relative size per algorithm, plus runtimes
    * (Fig. 5(b)), each the median of 3 runs.
    */
  def compactness(spark: SparkSession): Map[String, (Long, Map[String, Harness.Run])] = {
    // one untimed run of every algorithm, so JIT warm-up stays out of the rows
    val first = loadGraph(spark, Datasets.all.head, Datasets.defaultScale)
    algorithms.foreach { case (_, run) => run(first) }
    val measured = perStandIn(spark)(g =>
      (g.m, algorithms.map { case (algo, run) => algo -> medianOf(3)(run(g)) }.toMap))
    val rows = measured.map { case (name, (m, byAlgo)) =>
      name +: algorithms.map { case (algo, _) =>
        val r = byAlgo(algo)
        s"${fmt(r.summary.cost.toDouble / m)} (${r.millis}ms)"
      } :+ fmt(paperTableIII(name)(3))
    }
    report("fig5_compactness", "Fig. 5/1(a) — relative size (median runtime of 3 runs) per algorithm",
      ("Data" +: algorithms.map(_._1)) :+ "paper SLUGGER", rows)
    measured.toMap
  }

  /** Fig. 1(b) as a table: runtime vs number of edges (linear scalability),
    * on the U5 stand-in at 2, 4, 8 and 16 times its size.
    */
  def scalability(spark: SparkSession): Seq[(Long, Long)] = {
    val spec = Datasets.byName("U5") // paper scales subsamples of UK-05
    val scales = Seq(2.0, 4.0, 8.0, 16.0)
    val cfg = Slugger.Config(T = 10)
    // one untimed run at the smallest size, so JIT warm-up and the memo's
    // first fill stay out of the first row
    Slugger.summarize(loadGraph(spark, spec, scales.head), cfg)
    val measured = scales.map { sc =>
      val g = loadGraph(spark, spec, sc)
      val (_, ms) = timeIt(Slugger.summarize(g, cfg))
      (g.m, ms)
    }
    val rows = measured.map { case (m, ms) => Seq(m.toString, ms.toString) }
    report("fig1b_scalability", "Fig. 1(b) — runtime vs |E| (expect ~linear growth)",
      Seq("#edges", "runtime ms"), rows)
    measured
  }

  /** Fig. 6 as a table: composition of output edge types. */
  def composition(spark: SparkSession): Map[String, (Double, Double, Double)] = {
    val measured = perStandIn(spark)(g => Slugger.summarize(g, Slugger.Config(T = 20)).summary.composition)
    val rows = measured.map { case (name, (p, n, h)) => Seq(name, fmt(p), fmt(n), fmt(h)) }
    report("fig6_composition", "Fig. 6 — proportion of p-/n-/h-edges in SLUGGER outputs",
      Seq("Data", "p-edges", "n-edges", "h-edges"), rows)
    measured.toMap
  }
}
