package repro

import java.nio.file.{Files, Path, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** The summarization model, local SLUGGER, the encoder and the baselines are
  * single-machine code: only `repro.core.spark`, `repro.graph`, the benches
  * and the jobs may import Spark.
  */
class SparkFreeCoreSpec extends AnyFunSuite {

  val sparkFree = Seq("core/model", "core/local", "core/encode", "baselines")

  test("core.model, core.local, core.encode and baselines import nothing from Spark") {
    val files = sparkFree.flatMap { d =>
      val dir = Paths.get("src/main/scala/repro", d)
      assert(Files.isDirectory(dir), s"$dir is not a directory (tests run from the repository root)")
      Files.walk(dir).iterator.asScala.filter(_.toString.endsWith(".scala")).toSeq
    }
    assert(files.nonEmpty)
    // an import or a fully qualified name
    def sparkLines(f: Path) = Files.readAllLines(f).asScala.filter(_.contains("org.apache.spark"))
    val offenders = files.flatMap(f => sparkLines(f).map(l => s"$f: ${l.trim}"))
    assert(offenders.isEmpty, offenders.mkString("Spark imports in the Spark-free core:\n", "\n", ""))
  }
}
