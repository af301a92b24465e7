package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.core.local.{MergeEngine, Slugger, SummaryState}
import repro.core.spark.{GroupState, GroupTask, RootInfo}
import repro.graph.LocalGraph
import scala.util.Random

/** The executor-side snapshot is complete: on every candidate set, the
  * task holds the driver's roots, children and pair encodings, and running
  * Algorithm 2 on a [[GroupState]] built from it (`GroupState.run`,
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

  /** Algorithm 1's merging phase with each candidate set's task compared
    * with the driver state ([[taskMismatches]]), then the set run first on
    * the task, then on the full state (which advances), both with the
    * per-set seed `rngSeed·1000 + i`. Both allocate merged ids from
    * `st.nSupers`, so the k-th decision must be the children of
    * `idBase + k`. Returns the number of merges compared and a description
    * of each set where a task or a run differs.
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
          val task = GroupTask.of(st, set, th, cfg.heightBound, seed)
          taskMismatches(st, set, task).foreach(m => mismatches += s"set $i at θ=$th: $m")
          val decisions = GroupState.run(task)
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

  /** How `task` differs from the driver state it snapshots: each set root's
    * [[RootInfo]], the children of every set root and neighbor root, and the
    * pair encodings, where a pair with a root outside the set must ship its
    * whole buffer in order, from its set root, and a pair inside the set
    * must ship once.
    */
  def taskMismatches(st: SummaryState, set: Seq[Int], task: GroupTask): Seq[String] = {
    val inSet = set.toSet
    val out = Seq.newBuilder[String]
    val roots = set.map(r => RootInfo(r, st.famSize(r), st.heightOf(r), st.internal(r).toSeq))
    if (task.roots != roots) out += s"task roots ${task.roots}, driver $roots"
    val neighbors = set.flatMap(st.pairs(_).keys).filterNot(inSet)
    val children = (set ++ neighbors).map(x => x -> st.childrenOf(x)).toMap
    if (task.children != children) out += s"task children ${task.children}, driver $children"
    def key(a: Int, c: Int): (Int, Int) = if (inSet(c)) (a min c, a max c) else (a, c)
    val driver = set.flatMap(a => st.pairs(a).map { case (c, buf) => key(a, c) -> buf.toSeq }).toMap
    val shipped = task.pairEncs.map { case (a, c, es) => key(a, c) -> es }
    val foreignFirst = task.pairEncs.collect { case (a, c, _) if !inSet(a) => (a, c) }
    if (foreignFirst.nonEmpty) out += s"pairs shipped from a root outside the set: $foreignFirst"
    if (shipped.map(_._1).distinct.length != shipped.length) out += "a pair shipped twice"
    val byKey = shipped.toMap
    val differ = (driver.keySet ++ byKey.keySet).filter(k => driver.get(k) != byKey.get(k))
    if (differ.nonEmpty) out += s"pair encodings differ from the driver's at ${differ.toSeq.sorted.mkString(", ")}"
    out.result()
  }
}
