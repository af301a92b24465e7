package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.core.local.{CandidateGen, MergeEngine, SummaryState}
import repro.core.spark.{GroupState, SluggerSpark}
import repro.graph.LocalGraph
import scala.util.Random

/** The executor-side snapshot is complete: on every candidate set, running
  * Algorithm 2 on a [[GroupState]] built from the task (`GroupState.run`,
  * which returns its merge list) makes exactly the merges that
  * `processGroup` makes on the full [[SummaryState]]. Both get
  * the set as `CandidateGen` emits it (live roots, taken as given; the
  * snapshot has no parent map to resolve anything else) and the same RNG
  * seed, and both run the one `MergeEngine.greedy` loop, so they pop the
  * same roots in the same order.
  */
class GroupStateSpec extends AnyFunSuite {

  /** Disjoint 6-cliques plus random noise edges: deep, mergeable families. */
  def cliquesPlusNoise(nCliques: Int, noise: Int, seed: Long): LocalGraph = {
    val rng = new Random(seed)
    val n = nCliques * 6
    val cliques = for (c <- 0 until nCliques; i <- 0 until 6; j <- i + 1 until 6)
      yield ((c * 6 + i).toLong, (c * 6 + j).toLong)
    LocalGraph.fromEdges(cliques ++ Seq.fill(noise)((rng.nextInt(n).toLong, rng.nextInt(n).toLong)))
  }

  /** Runs T iterations, each candidate set first on its task snapshot, then
    * on the full state (which advances). Both allocate merged ids from
    * `st.nSupers`, so the k-th decision must be the children of
    * `idBase + k`. Returns the number of merges compared.
    */
  def compareOnEveryGroup(g: LocalGraph, bigT: Int, seed: Long,
                          heightBound: Int = Int.MaxValue): Int = {
    val st = new SummaryState(g)
    val engine = new MergeEngine(st)
    var compared = 0
    for (t <- 1 to bigT) {
      val th = engine.theta(t, bigT)
      CandidateGen.groups(st, seed + 7919L * t, maxSize = 12).zipWithIndex.foreach { case (group, i) =>
        val rngSeed = seed * 31 + 1000L * t + i
        val idBase = st.nSupers
        val decisions = GroupState.run(SluggerSpark.buildTask(st, group, th, heightBound, rngSeed))
        val merges = engine.processGroup(group, th, new Random(rngSeed), heightBound)
        assert(decisions.length == merges, s"t=$t group $i: merge count")
        decisions.zipWithIndex.foreach { case ((a, b), k) =>
          assert(st.childrenOf(idBase + k) == Seq(a, b), s"t=$t group $i merge $k")
        }
        compared += merges
      }
    }
    compared
  }

  for (seed <- 1 to 3) {
    test(s"task snapshots reproduce processGroup on random graphs (seed=$seed)") {
      assert(compareOnEveryGroup(randomGraph(60, 180, seed), bigT = 6, seed) > 0)
    }
    test(s"task snapshots reproduce processGroup on cliques plus noise (seed=$seed)") {
      assert(compareOnEveryGroup(cliquesPlusNoise(8, 30, seed), bigT = 6, seed) > 0)
    }
  }

  test("task snapshots reproduce processGroup under a height bound") {
    assert(compareOnEveryGroup(cliquesPlusNoise(8, 30, 4), bigT = 6, 4, heightBound = 2) > 0)
  }
}
