package mbpbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** In-memory span recorder: one span per call into a layer, made from the
  * benchmark's side of the call. Spans of one repetition or replayed node
  * share a run id; `parent` is the index of the enclosing span (-1 = root).
  */
final class Tracer {
  // Primitive columns, so that recording a span allocates nothing but the
  // occasional doubling.
  private var names = new Array[String](1024)
  private var runs = new Array[Int](1024)
  private var parents = new Array[Int](1024)
  private var starts = new Array[Long](1024)
  private var ends = new Array[Long](1024)
  private var size = 0
  private var open = -1
  var run = 0

  private def add(name: String, start: Long, end: Long): Int = {
    if (size == names.length) {
      val n = size * 2
      names = java.util.Arrays.copyOf(names, n)
      runs = java.util.Arrays.copyOf(runs, n)
      parents = java.util.Arrays.copyOf(parents, n)
      starts = java.util.Arrays.copyOf(starts, n)
      ends = java.util.Arrays.copyOf(ends, n)
    }
    names(size) = name; runs(size) = run; parents(size) = open; starts(size) = start; ends(size) = end
    size += 1
    size - 1
  }

  /** Record `body` as a span named `name`, nested in the open span. */
  def span[A](name: String)(body: => A): A = {
    val id = add(name, System.nanoTime, 0L)
    val outer = open
    open = id
    try body
    finally {
      ends(id) = System.nanoTime
      open = outer
    }
  }

  /** A zero-length span marking an event (a delivery to the sink). */
  def mark(name: String): Unit = {
    val t = System.nanoTime
    add(name, t, t)
  }

  /** Per span name: (count, total duration ns, total self time ns, number
    * of child spans). Self time is the span minus its children, which never
    * overlap because the traced calls are sequential.
    */
  def byName: Map[String, (Long, Long, Long, Long)] = {
    val childNs = new Array[Long](size)
    val kids = new Array[Long](size)
    var i = 0
    while (i < size) {
      if (parents(i) >= 0) { childNs(parents(i)) += ends(i) - starts(i); kids(parents(i)) += 1 }
      i += 1
    }
    val acc = mutable.HashMap.empty[String, (Long, Long, Long, Long)]
    i = 0
    while (i < size) {
      val d = ends(i) - starts(i)
      val (c, t, s, k) = acc.getOrElse(names(i), (0L, 0L, 0L, 0L))
      acc(names(i)) = (c + 1, t + d, s + d - childNs(i), k + kids(i))
      i += 1
    }
    acc.toMap
  }

  /** Mean duration (or self time) of the spans named `name`, in µs, less
    * the tracing cost `cost`: its `spanNs` per span, and for self time also
    * its `childNs` per child span.
    */
  def meanUs(name: String, self: Boolean, cost: SpanCost): Double =
    byName.get(name) match {
      case Some((c, t, s, k)) if c > 0 =>
        val ns = if (self) s - c * cost.spanNs - k * cost.childNs else t - c * cost.spanNs
        ns / c / 1000.0
      case _ => 0.0
    }

  /** Write every span as one JSON object per line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val sb = new StringBuilder
    var i = 0
    while (i < size) {
      sb.append(s"""{"id":$i,"run":${runs(i)},"parent":${parents(i)},"name":"${names(i)}",""")
        .append(s""""start_ns":${starts(i)},"end_ns":${ends(i)}}""").append('\n')
      i += 1
    }
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}

/** What recording a span adds to the measured times, in ns: `spanNs` to the
  * span's own duration, `childNs` to its parent's self time.
  */
final case class SpanCost(spanNs: Double, childNs: Double)

object SpanCost {
  /** Measure the cost on empty spans, three to a parent, in a compiled
    * tracer: the median of `rounds` rounds of `parents` parents.
    */
  def measure(rounds: Int = 7, parents: Int = 20000): SpanCost = {
    val costs = Seq.fill(rounds) {
      val tr = new Tracer
      var i = 0
      while (i < parents) {
        tr.span("p") { tr.span("c")(()); tr.span("c")(()); tr.span("c")(()) }
        i += 1
      }
      val by = tr.byName
      val (cc, ct, _, _) = by("c")
      val (_, _, ps, pk) = by("p")
      val span = ct.toDouble / cc
      SpanCost(span, (ps - parents * span) / pk)
    }
    def med(xs: Seq[Double]) = xs.sorted.apply(xs.length / 2)
    SpanCost(med(costs.map(_.spanNs)), med(costs.map(_.childNs)))
  }
}

/** Spark task and job metrics of the jobs in one job group, gathered by a
  * listener the benchmark registers; the program is not involved.
  */
final class SparkTaskCollector extends SparkListener {
  private var group: String = null
  private val groupJobs = mutable.HashSet.empty[Int]
  private val endedJobs = mutable.HashSet.empty[Int]
  private val groupStages = mutable.HashSet.empty[Int]
  val taskSeconds = mutable.ArrayBuffer.empty[Double]
  var runSeconds = 0.0
  var shuffleBytes = 0L
  var stagesDone = 0

  def reset(g: String): Unit = synchronized {
    group = g; groupJobs.clear(); endedJobs.clear(); groupStages.clear()
    taskSeconds.clear(); runSeconds = 0.0; shuffleBytes = 0L; stagesDone = 0
  }

  def jobs: Int = synchronized(groupJobs.size)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (g != null && g == group) { groupJobs += e.jobId; groupStages ++= e.stageIds }
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { endedJobs += e.jobId }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (groupStages.contains(e.stageInfo.stageId)) stagesDone += 1
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (groupStages.contains(e.stageId) && e.taskInfo != null) {
      taskSeconds += e.taskInfo.duration / 1000.0
      if (e.taskMetrics != null) {
        runSeconds += e.taskMetrics.executorRunTime / 1000.0
        shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Wait until the listener bus has delivered the end of every job the
    * status tracker knows for the group (events arrive asynchronously).
    */
  def await(sc: org.apache.spark.SparkContext, timeoutMs: Long = 10000): Unit = {
    val ids = sc.statusTracker.getJobIdsForGroup(group).toSet
    val until = System.currentTimeMillis + timeoutMs
    def done = synchronized(ids.subsetOf(endedJobs) && ids.subsetOf(groupJobs))
    while (!done && System.currentTimeMillis < until) Thread.sleep(20)
  }
}
