package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.core.model.HierSummary

/** Result persistence and run timing of the per-table benches. */
class HarnessSpec extends AnyFunSuite {

  test("report files are UTF-8 whatever the default charset") {
    val f = Files.createTempFile("harness", ".md").toFile
    try {
      val title = "Fig. 5/1(a) — relative size"
      val body = Harness.save(f, title, Seq("Data", "rel"), Seq(Seq("CA", "0.875")))
      val back = new String(Files.readAllBytes(f.toPath), StandardCharsets.UTF_8)
      assert(back == body)
      assert(back.linesIterator.next() == s"# $title")
    } finally f.delete()
  }

  test("medianOf runs the body reps times and reports the median time") {
    val empty = HierSummary(0, Array.empty, Array.empty, Nil, Nil)
    val times = Iterator(5L, 1L, 9L)
    var calls = 0
    val r = Harness.medianOf(3) { calls += 1; Harness.Run(empty, times.next()) }
    assert(calls == 3 && r.millis == 5L)
  }
}
