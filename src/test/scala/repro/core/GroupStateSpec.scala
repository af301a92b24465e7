package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.randomGraph
import repro.core.encode.Enc
import repro.core.local.{MergeEngine, Slugger, SummaryState}
import repro.core.spark.{GroupState, GroupTask}
import repro.graph.LocalGraph
import scala.util.{Random, Try}

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

  test("packed edges round-trip at id 0 and a run's largest supernode id, both signs") {
    val g = cliquesPlusNoise(8, 30, 4)
    val largest = Slugger.summarize(g, Slugger.Config(T = 6, seed = 4, maxGroupSize = 12)).summary.nSupers - 1
    assert(largest > g.n)
    for (x <- Seq(0, largest); y <- Seq(0, largest, Int.MaxValue); sign <- Seq(1, -1)) {
      val e = Enc(x, y, sign)
      assert(GroupTask.unpackEdge(GroupTask.packEdge(e)) == e, e)
    }
  }

  test("the edge codec rejects a negative id and a sign other than +1 or -1, naming the value") {
    for ((e, value) <- Seq(Enc(-1, 3, 1) -> "id -1", Enc(0, -7, -1) -> "id -7",
                           Enc(0, 3, 0) -> "sign 0", Enc(0, 3, 2) -> "sign 2")) {
      val err = intercept[IllegalArgumentException](GroupTask.packEdge(e))
      assert(err.getMessage.contains(value), err.getMessage)
    }
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
          val decisions = GroupState.run(task).grouped(2).map(_.toSeq).toSeq
          val local = engine.processGroup(set, th, new Random(seed), cfg.heightBound)
          val same = decisions.length == local && decisions.zipWithIndex.forall {
            case (ab, k) => st.childrenOf(idBase + k) == ab
          }
          if (!same) mismatches += s"set $i at θ=$th: executor $decisions, local $local merges"
          merges + local
        }
    }
    (compared, mismatches.result())
  }

  /** How `task`, as [[GroupState]]'s own decoder reads it, differs from the
    * driver state it snapshots: the set's order; each set root's family
    * size, height and internal encodings (the only roots registered); the
    * children of every set root and neighbor root; and every pair buffer of
    * a set root, whole and in order, shared by both of its entries, with a
    * neighbor root's stub holding exactly its pairs with the set. On the
    * raw wire, each pair must ship once, from a root in the set.
    */
  def taskMismatches(st: SummaryState, set: Seq[Int], task: GroupTask): Seq[String] = {
    val inSet = set.toSet
    val out = Seq.newBuilder[String]
    if (task.roots.toSeq != set) out += s"task set ${task.roots.toSeq}, driver $set"
    val gs = new GroupState(task)
    if (gs.famSize.keySet != inSet) out += s"roots registered ${gs.famSize.keySet}, set $inSet"
    set.filter(gs.isRoot).foreach { r =>
      val shipped = (gs.famSize(r), gs.heightOf(r), gs.internal(r))
      val driver = (st.famSize(r), st.heightOf(r), st.internal(r))
      if (shipped != driver) out += s"root $r: task (famSize, height, internal) $shipped, driver $driver"
    }
    val neighbors = set.flatMap(st.pairs(_).keys).filterNot(inSet).distinct
    (set ++ neighbors).foreach { x =>
      val children = Try(gs.childrenOf(x)).toOption
      if (!children.contains(st.childrenOf(x))) out += s"children of $x: task $children, driver ${st.childrenOf(x)}"
    }
    if (gs.pairs.keySet != inSet ++ neighbors) out += s"pair keys ${gs.pairs.keySet}, driver ${inSet ++ neighbors}"
    set.foreach { a =>
      if (gs.pairs.get(a).contains(st.pairs(a))) {
        if (!gs.pairs(a).forall { case (c, buf) => gs.pairs.get(c).flatMap(_.get(a)).exists(_ eq buf) })
          out += s"root $a: a pair buffer is not shared by both of its entries"
      } else out += s"pairs of $a: task ${gs.pairs.get(a)}, driver ${st.pairs(a)}"
    }
    neighbors.foreach { c =>
      val keys = gs.pairs.get(c).map(_.keySet)
      if (!keys.contains(st.pairs(c).keySet.intersect(inSet))) out += s"neighbor $c: task pairs with $keys"
    }
    val shipped = task.pairRoots.grouped(2).map { case Array(a, c) => (a, c) }.toSeq
    val foreignFirst = shipped.filterNot { case (a, _) => inSet(a) }
    if (foreignFirst.nonEmpty) out += s"pairs shipped from a root outside the set: $foreignFirst"
    val keys = shipped.map { case (a, c) => (a min c, a max c) }
    if (keys.distinct.length != keys.length) out += "a pair shipped twice"
    out.result()
  }
}
