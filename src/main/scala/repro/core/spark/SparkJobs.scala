package repro.core.spark

import org.apache.spark.rdd.RDD
import scala.concurrent.Await
import scala.concurrent.duration.Duration
import scala.reflect.ClassTag

/** The one way the program runs a Spark job: the per-iteration merge job of
  * [[SluggerSpark]] and the edge collect of `LocalGraph.fromDF`.
  *
  * It submits `f` itself with `SparkContext.submitJob` and waits on the
  * job. `rdd.map(f).collect()` would wrap `f` in lambdas of `RDD` and
  * `SparkContext`, and Spark's closure cleaner re-reads those large classes
  * on every job: an empty job took 11–12.5 ms that way in a warm JVM on a
  * 4-vCPU VM (`local[1]`), against 4.2–5.3 ms here. A failed task fails
  * the job, and `Await.result` rethrows Spark's exception, whose message
  * holds the task's own.
  */
object SparkJobs {

  /** Run `f` on every partition of `rdd` as one job; returns the results
    * concatenated in partition order, so an RDD's element order is kept
    * however it is sliced.
    */
  def collect[T, U: ClassTag](rdd: RDD[T])(f: Iterator[T] => Array[U]): Array[U] = {
    val parts = new Array[Array[U]](rdd.partitions.length)
    Await.result(rdd.sparkContext.submitJob(rdd, f, parts.indices,
      (i: Int, part: Array[U]) => parts(i) = part, ()), Duration.Inf)
    Array.concat(parts.toIndexedSeq: _*)
  }
}
