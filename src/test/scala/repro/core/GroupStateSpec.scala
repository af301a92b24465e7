package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.core.local.{MergeEngine, Slugger, SummaryState}
import repro.core.spark.{GroupState, GroupTask}
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
  import GroupStateSpec.compareOnEveryGroup

  /** Disjoint 6-cliques plus random noise edges: deep, mergeable families. */
  def cliquesPlusNoise(nCliques: Int, noise: Int, seed: Long): LocalGraph = {
    val rng = new Random(seed)
    val n = nCliques * 6
    val cliques = for (c <- 0 until nCliques; i <- 0 until 6; j <- i + 1 until 6)
      yield ((c * 6 + i).toLong, (c * 6 + j).toLong)
    LocalGraph.fromEdges(cliques ++ Seq.fill(noise)((rng.nextInt(n).toLong, rng.nextInt(n).toLong)))
  }

  def check(g: LocalGraph, cfg: Slugger.Config): Unit = {
    val (compared, mismatches) = compareOnEveryGroup(g, cfg)
    assert(mismatches.isEmpty, mismatches.mkString("; "))
    assert(compared > 0)
  }

  for (seed <- 1 to 3) {
    test(s"task snapshots reproduce processGroup on random graphs (seed=$seed)") {
      check(randomGraph(60, 180, seed), Slugger.Config(T = 6, seed = seed, maxGroupSize = 12))
    }
    test(s"task snapshots reproduce processGroup on cliques plus noise (seed=$seed)") {
      check(cliquesPlusNoise(8, 30, seed), Slugger.Config(T = 6, seed = seed, maxGroupSize = 12))
    }
  }

  test("task snapshots reproduce processGroup under a height bound") {
    check(cliquesPlusNoise(8, 30, 4), Slugger.Config(T = 6, seed = 4, maxGroupSize = 12, heightBound = 2))
  }
}

object GroupStateSpec {

  /** Algorithm 1's merging phase with each candidate set run first on its
    * task snapshot, then on the full state (which advances), both with the
    * per-set seed `rngSeed·1000 + i`. Both allocate merged ids from
    * `st.nSupers`, so the k-th decision must be the children of
    * `idBase + k`. Returns the number of merges compared and a description
    * of each set where the two differ.
    */
  def compareOnEveryGroup(g: LocalGraph, cfg: Slugger.Config): (Long, Seq[String]) = {
    val st = new SummaryState(g)
    val engine = new MergeEngine(st)
    val mismatches = Seq.newBuilder[String]
    val compared = MergeEngine.mergePhase(g, st.find, cfg.T, cfg.seed, cfg.maxGroupSize) {
      (sets, th, rngSeed) =>
        sets.zipWithIndex.foldLeft(0L) { case (merges, (set, i)) =>
          val seed = rngSeed * 1000 + i
          val idBase = st.nSupers
          val decisions = GroupState.run(GroupTask.of(st, set, th, cfg.heightBound, seed))
          val local = engine.processGroup(set, th, new Random(seed), cfg.heightBound)
          val same = decisions.length == local && decisions.zipWithIndex.forall {
            case ((a, b), k) => st.childrenOf(idBase + k) == Seq(a, b)
          }
          if (!same) mismatches += s"set $i at θ=$th: executor $decisions, local $local merges"
          merges + local
        }
    }
    (compared, mismatches.result())
  }
}
