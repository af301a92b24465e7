package repro.baselines

import repro.core.local.{CandidateGen, MergeEngine}
import repro.core.model.{FlatModel, HierSummary}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** RANDOMIZED (Navlakha et al., SIGMOD'08): repeatedly pick a random
  * unfinished supernode u, merge it with the 2-hop supernode maximizing the
  * cost-reduction ratio if positive, otherwise finalize u.
  */
object Randomized {
  def summarize(g: LocalGraph, seed: Long = 42): HierSummary = {
    val fs = new FlatState(g)
    val rng = new Random(seed)
    val unfinished = mutable.LinkedHashSet.from(rng.shuffle((0 until g.n).toList))
    // a live root u leaves once finished; a merge swaps u and its partner
    // for the survivor, so the set holds only live roots
    while (unfinished.nonEmpty) {
      val u = unfinished.head
      // 2-hop candidate supernodes
      val oneHop = fs.cnt(u).keysIterator.filter(_ != u).toArray
      val twoHop = mutable.HashSet.empty[Int]
      oneHop.foreach { c =>
        twoHop += c
        fs.cnt(c).keysIterator.foreach(d => if (d != u && d != c) twoHop += d)
      }
      var best = -1; var bestGain = 0.0
      twoHop.foreach { v =>
        val s = fs.gain(u, v)
        if (s > bestGain) { bestGain = s; best = v }
      }
      unfinished.remove(u)
      if (best >= 0) {
        unfinished.remove(best)
        unfinished += fs.merge(u, best)
      }
    }
    FlatModel.encode(g, fs.superOf)
  }
}

/** SWEG (Shin et al., WWW'19), lossless variant (eps = 0): SLUGGER's
  * merging phase ([[MergeEngine.mergePhase]]: T iterations of min-hash
  * candidate sets of at most the paper's `CandidateGen.MaxGroupSize` roots)
  * with SLUGGER's Algorithm 2 loop ([[MergeEngine.greedy]]) in each set,
  * which pairs each popped supernode with the set member of highest
  * neighborhood Jaccard similarity and merges if the flat-model saving
  * clears the threshold θ(t) of Eq. (9).
  */
object Sweg {
  def summarize(g: LocalGraph, bigT: Int = 20, seed: Long = 42): HierSummary = {
    val fs = new FlatState(g)
    MergeEngine.mergePhase(g, fs.find, bigT, seed, CandidateGen.MaxGroupSize) { (sets, th, rngSeed) =>
      val rng = new Random(rngSeed)
      sets.foldLeft(0L)((merges, d) =>
        merges + MergeEngine.greedy(d, rng, fs.cnt.contains)(partner(fs, th))(fs.merge))
    }
    FlatModel.encode(g, fs.superOf)
  }

  /** SWEG's partner for root `a` in Algorithm 2 ([[MergeEngine.greedy]]):
    * the queued root of highest Jaccard similarity, accepted if the flat
    * model's merge gain is at least `th`; -1 otherwise.
    */
  def partner(fs: FlatState, th: Double)(a: Int, q: collection.IndexedSeq[Int]): Int = {
    var best = -1; var bestJ = -1.0
    var i = 0
    while (i < q.length) {
      val z = q(i)
      val j = jaccard(fs, a, z)
      if (j > bestJ) { bestJ = j; best = z }
      i += 1
    }
    if (best >= 0 && fs.gain(a, best) >= th) best else -1
  }

  /** Weighted Jaccard over neighbor-supernode count maps. */
  def jaccard(fs: FlatState, a: Int, b: Int): Double = {
    val ca = fs.cnt(a); val cb = fs.cnt(b)
    if (ca.isEmpty && cb.isEmpty) return 0.0
    var inter = 0L; var union = 0L
    (ca.keySet ++ cb.keySet).foreach { k =>
      val x = ca.getOrElse(k, 0); val y = cb.getOrElse(k, 0)
      inter += math.min(x, y); union += math.max(x, y)
    }
    if (union == 0) 0.0 else inter.toDouble / union
  }
}

/** SAGS (Khan et al., Computing'15) — LSH-flavored: b bands of r min-hash
  * rows form signatures; nodes sharing a band bucket are merged greedily
  * with sampling probability p, *without* evaluating the cost reduction.
  * Fastest baseline, least concise output (paper Fig. 5).
  */
object Sags {
  /** The paper's settings (§IV-A): h = 30 min-hashes in b = 10 bands, p = 0.3. */
  val h = 30
  val b = 10
  val p = 0.3

  def summarize(g: LocalGraph, seed: Long = 42): HierSummary = {
    val fs = new FlatState(g)
    val r = h / b
    val rng = new Random(seed)
    for (band <- 0 until b) {
      // band signature per current supernode: r min-hashes over member neighborhoods
      val sig = mutable.HashMap.empty[Int, List[Long]]
      for (row <- 0 until r) {
        val hv = CandidateGen.rootShinglesOf(g, fs.find, seed + band * 1000 + row, 0)
        hv.foreach { case (root, v) => sig(root) = v :: sig.getOrElse(root, Nil) }
      }
      // the buckets partition the band's roots, so each member is still a
      // root when reached: one draw per member after the first
      sig.toSeq.groupBy(_._2).valuesIterator.foreach { bucket =>
        var acc = bucket.head._1
        bucket.tail.foreach { case (z, _) => if (rng.nextDouble() < p) acc = fs.merge(acc, z) }
      }
    }
    FlatModel.encode(g, fs.superOf)
  }
}

/** MoSSo-lite — a simplified offline replay of MoSSo (Ko et al., KDD'20):
  * edges arrive as a stream; on each arrival, with probability 1-e, each
  * endpoint that is still a singleton joins the supernode of a random
  * neighbor if the flat-model cost drops (a node never leaves a supernode).
  * Corrections are re-derived at the end by the optimal flat encoder. The
  * original maintains them incrementally; compression quality is comparable,
  * speed semantics are not reproduced.
  */
object MossoLite {
  /** Escape probability: an arriving edge skips the move attempt with
    * probability e (§IV-A: 0.3).
    */
  val e = 0.3

  def summarize(g: LocalGraph, seed: Long = 42): HierSummary = {
    val fs = new FlatState(g)
    val rng = new Random(seed)
    val stream = rng.shuffle(g.edges.toList)
    stream.foreach { case (u, v) =>
      if (rng.nextDouble() >= e) {
        tryMove(fs, g, u, rng)
        tryMove(fs, g, v, rng)
      }
    }
    FlatModel.encode(g, fs.superOf)
  }

  /** Propose moving subnode x into the supernode of one random neighbor. */
  private def tryMove(fs: FlatState, g: LocalGraph, x: Int, rng: Random): Unit = {
    val nb = g.adj(x)
    if (nb.isEmpty) return
    val y = nb(rng.nextInt(nb.length))
    val rx = fs.find(x); val ry = fs.find(y)
    if (rx == ry || fs.sizeOf(rx) != 1) return // lite: only singletons move in
    if (fs.gain(rx, ry) > 0) { fs.merge(rx, ry); () }
  }
}
