package repro.perfbench

import repro.core.local.{CandidateGen, MergeEngine, Pruner, Slugger, SummaryState}
import repro.core.model.HierSummary
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** Accumulated wall time per span name. */
final class Spans {
  private val nanos = mutable.HashMap.empty[String, Long]

  def apply[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    add(name, System.nanoTime() - t0)
    r
  }

  def add(name: String, dt: Long): Unit = nanos(name) = nanos.getOrElse(name, 0L) + dt

  def seconds(name: String): Double = nanos.getOrElse(name, 0L) / 1e9
  def coveredSeconds: Double = nanos.valuesIterator.sum / 1e9
}

/** `Slugger.summarize` (Algorithm 1) repeated step by step with the same
  * seeds and θ(t), timing every call into `CandidateGen`, `MergeEngine`,
  * `Pruner` and `PruneState`. The caller checks that the summary equals
  * `Slugger.summarize`'s and that the spans cover the traced wall time.
  */
object TracedSlugger {

  final case class Trace(summary: HierSummary, merges: Long, wallS: Double, spans: Spans,
                         groups: Long, pairs: Long, groupMax: Int, groupSeconds: Seq[Double],
                         step1Removed: Int, step2Removed: Int, step3Changed: Int)

  def summarize(g: LocalGraph, cfg: Slugger.Config): Trace = {
    val spans = new Spans
    val groupSeconds = mutable.ArrayBuffer.empty[Double]
    var groups = 0L; var pairs = 0L; var groupMax = 0; var merges = 0L
    val t0 = System.nanoTime()

    val st = spans("state.init")(new SummaryState(g))
    val engine = new MergeEngine(st)
    var t = 1
    while (t <= cfg.T) {
      val gs = spans("candgen")(CandidateGen.groups(st, cfg.seed + 7919L * t, cfg.maxGroupSize))
      gs.foreach { d =>
        groups += 1
        pairs += d.length.toLong * (d.length - 1) / 2
        groupMax = math.max(groupMax, d.length)
      }
      val th = engine.theta(t, cfg.T)
      val rng = new Random(cfg.seed * 31 + t)
      gs.foreach { d =>
        val g0 = System.nanoTime()
        merges += engine.processGroup(d, th, rng, cfg.heightBound)
        val dt = System.nanoTime() - g0
        spans.add("merge", dt)
        groupSeconds += dt / 1e9
      }
      t += 1
    }

    // Pruner.prune: a metrics snapshot before and after each substep, then
    // up to pruneRounds - 1 silent rounds that stop once nothing changes.
    val ps = spans("prune.from_state")(Pruner.fromState(st))
    spans("prune.snapshot")(ps.metrics)
    val r1 = spans("prune.step1")(Pruner.step1(ps))
    spans("prune.snapshot")(ps.metrics)
    val r2 = spans("prune.step2")(Pruner.step2(ps))
    spans("prune.snapshot")(ps.metrics)
    val c3 = spans("prune.step3")(Pruner.step3(ps, g))
    spans("prune.snapshot")(ps.metrics)
    spans("prune.rounds") {
      var r = 1
      while (r < cfg.pruneRounds) {
        val c = Pruner.step1(ps) + Pruner.step2(ps) + Pruner.step3(ps, g)
        if (c == 0) r = cfg.pruneRounds else r += 1
      }
    }
    val summary = spans("prune.to_summary")(ps.toSummary)
    Trace(summary, merges, Stats.seconds(t0), spans, groups, pairs, groupMax,
          groupSeconds.toSeq, r1, r2, c3)
  }

  /** Leaves `HierSummary.neighbors(v)` scans: over v's root path, the leaves
    * of every incident edge's far endpoint (of x itself for a loop at x).
    */
  def leafVisits(s: HierSummary, v: Int): Long = {
    val inc = s.incidentIndex
    var visits = 0L
    var x = v
    while (x >= 0) {
      inc.getOrElse(x, Nil).foreach { case (other, _, loop) =>
        visits += s.leavesOf(if (loop) x else other).length
      }
      x = s.parent(x)
    }
    visits
  }
}
