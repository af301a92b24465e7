package repro.bench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.baselines.{MossoLite, Randomized, Sags, Sweg}
import repro.core.local.Slugger
import repro.core.model.HierSummary
import repro.graph.LocalGraph

/** Shared machinery for the per-table benchmark harnesses: uniform algorithm
  * runners, lossless verification, markdown table rendering, and result
  * persistence under results/.
  */
object Harness {

  final case class Run(summary: HierSummary, millis: Long)

  def timeIt[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000)
  }

  /** name -> timed runner, in the paper's Fig. 5 order, at T=20 and seed 42. */
  val algorithms: Seq[(String, LocalGraph => Run)] = Seq[(String, LocalGraph => HierSummary)](
    "SLUGGER"    -> (g => Slugger.summarize(g, Slugger.Config(T = 20, seed = 42)).summary),
    "SWEG"       -> (g => Sweg.summarize(g, 20, 42)),
    "RANDOMIZED" -> (g => Randomized.summarize(g, 42)),
    "SAGS"       -> (g => Sags.summarize(g, 42)),
    "MOSSO-LITE" -> (g => MossoLite.summarize(g, 42)),
  ).map { case (name, f) => name -> ((g: LocalGraph) => { val (r, ms) = timeIt(f(g)); Run(r, ms) }) }

  /** `run` repeated `reps` times: the first summary (every runner is
    * deterministic for a fixed seed) and the median wall time.
    */
  def medianOf(reps: Int)(run: => Run): Run = {
    val runs = Seq.fill(reps)(run)
    Run(runs.head.summary, runs.map(_.millis).sorted.apply(reps / 2))
  }

  def loadGraph(spark: SparkSession, spec: Datasets.Spec, scale: Double): LocalGraph =
    LocalGraph.fromDF(spec.gen(spark, scale))

  def fmt(d: Double): String = f"$d%.3f"

  /** Render a GitHub-flavored markdown table. */
  def markdown(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb ++= header.mkString("| ", " | ", " |\n")
    sb ++= header.map(_ => "---").mkString("| ", " | ", " |\n")
    rows.foreach(r => sb ++= r.mkString("| ", " | ", " |\n"))
    sb.toString
  }

  /** Print a table and persist it under results/<name>.md. */
  def report(name: String, title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val dir = new File("results")
    dir.mkdirs()
    println("\n" + save(new File(dir, s"$name.md"), title, header, rows))
  }

  /** Write a titled table to f as UTF-8, whatever the JVM's default
    * charset, and return the text written.
    */
  def save(f: File, title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val body = s"# $title\n\n" + markdown(header, rows)
    Files.write(f.toPath, body.getBytes(StandardCharsets.UTF_8))
    body
  }
}
