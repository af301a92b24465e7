package repro

import repro.graph.LocalGraph
import scala.util.Random

/** Small graphs shared by the unit tests. */
object TestGraphs {

  /** m uniform random node pairs over n nodes (self-loops and duplicates are
    * dropped by `LocalGraph.fromEdges`), drawn from `new Random(seed)`.
    */
  def randomGraph(n: Int, m: Int, seed: Long): LocalGraph = {
    val rng = new Random(seed)
    LocalGraph.fromEdges(Seq.fill(m)((rng.nextInt(n).toLong, rng.nextInt(n).toLong)))
  }

  /** The complete graph on nodes 0..n-1. */
  def clique(n: Int): LocalGraph =
    LocalGraph.fromEdges(for { i <- 0 until n; j <- i + 1 until n } yield (i.toLong, j.toLong))
}
