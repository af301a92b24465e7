package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.GraphGen

/** Synthetic stand-ins for the paper's 16 real-world graphs (Table II).
  *
  * The originals (SNAP / LAW corpora up to 0.8 B edges) are not available
  * offline, so each dataset is replaced by a generator that reproduces the
  * structural regime that drives SLUGGER's behavior on it:
  *  - hyperlink graphs (CN, EU, IC, U2, U5) and the protein graph (PR) are
  *    dominated by complete bipartite cores / dense modules -> highly
  *    compressible (paper: relative size 0.09-0.22),
  *  - collaboration / co-purchase graphs (HO, FA, SK, DB, AM) are clique
  *    mixtures -> moderately compressible (0.42-0.70),
  *  - social / email graphs (ES, EM, LJ, YO) and the internet topology (CA)
  *    are heavy-tailed with little block structure -> barely compressible
  *    (0.72-0.92).
  * Node/edge counts are scaled down ~3 orders of magnitude so the whole
  * 16-dataset suite runs in minutes; `scale` multiplies every size knob.
  * See DESIGN.md ("Dataset substitutions") for the full mapping.
  */
object Datasets {

  /** Paper-side facts for one dataset (Table II). */
  final case class PaperRow(nodes: Long, edges: Long)

  final case class Spec(name: String, summary: String, paper: PaperRow,
                        gen: (SparkSession, Double) => DataFrame)

  private def s(x: Long, scale: Double): Long = math.max(1L, (x * scale).toLong)

  val all: Seq[Spec] = Seq(
    Spec("CA", "Internet", PaperRow(26475, 53381),
      (sp, sc) => GraphGen.prefAttach(sp, s(1400, sc), 2, seed = 101)),
    Spec("FA", "Social", PaperRow(4039, 88234),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(90, sc), 8, s(380, sc), seed = 102)),
    Spec("PR", "Protein Interaction", PaperRow(6229, 146160),
      (sp, sc) => GraphGen.bipartiteCores(sp, s(9, sc), 16, 32, s(120, sc), seed = 103)),
    Spec("EM", "Email", PaperRow(36692, 183831),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(160, sc), 5, s(420, sc), seed = 104)),
    Spec("DB", "Collaboration", PaperRow(317080, 1049866),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(220, sc), 5, s(280, sc), seed = 105)),
    Spec("AM", "Co-purchase", PaperRow(403394, 2443408),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(230, sc), 5, s(330, sc), seed = 106)),
    Spec("CN", "Hyperlinks", PaperRow(325557, 2738969),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(90, sc), 10, s(180, sc), seed = 107)),
    Spec("YO", "Social", PaperRow(1134890, 2987624),
      (sp, sc) => GraphGen.prefAttach(sp, s(1300, sc), 3, seed = 108)),
    Spec("SK", "Internet", PaperRow(1696415, 11095298),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(260, sc), 6, s(420, sc), seed = 109)),
    Spec("EU", "Hyperlinks", PaperRow(862664, 16138468),
      (sp, sc) => GraphGen.bipartiteCores(sp, s(20, sc), 8, 16, s(450, sc), seed = 110)),
    Spec("ES", "Social", PaperRow(970327, 21184931),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(190, sc), 5, s(520, sc), seed = 111)),
    Spec("LJ", "Social", PaperRow(3997962, 34681189),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(170, sc), 5, s(560, sc), seed = 112)),
    Spec("HO", "Collaboration", PaperRow(1985306, 114492816),
      (sp, sc) => GraphGen.cliqueUnion(sp, s(200, sc), 7, s(320, sc), seed = 113)),
    Spec("IC", "Hyperlinks", PaperRow(7414758, 150984819),
      (sp, sc) => GraphGen.bipartiteCores(sp, s(11, sc), 16, 32, s(160, sc), seed = 114)),
    Spec("U2", "Hyperlinks", PaperRow(18483186, 261787258),
      (sp, sc) => GraphGen.bipartiteCores(sp, s(16, sc), 12, 20, s(260, sc), seed = 115)),
    Spec("U5", "Hyperlinks", PaperRow(39454463, 783027125),
      (sp, sc) => GraphGen.bipartiteCores(sp, s(22, sc), 14, 26, s(280, sc), seed = 116)),
  )

  def byName(name: String): Spec = all.find(_.name == name)
    .getOrElse(throw new NoSuchElementException(s"unknown dataset $name"))

  /** Default suite scale (multiplies every dataset's size knobs). */
  def defaultScale: Double = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)
}
