package mbpbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graph.BipartiteGraph
import repro.spark.{CoreDecomposition, DistITraversal}
import scala.collection.mutable

/** Benchmark entry point: one workload, one seed, one run.
  *
  * Usage: mbpbench.Main --workload NAME --seed N --seconds S --trace 0|1 --out DIR
  *
  * Prints a readable report and, as the last line, one JSON object with
  * `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
  * `--trace 0`, per-layer metrics with `--trace 1`). Reports and spans are
  * also written under DIR.
  */
object Main {
  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      Paths.get(kv.getOrElse("out", ".")))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    new Bench(Workloads.byName(o.workload), o).run()
  }
}

/** One timed repetition: its stats, start/end and delivery times (ns) and
  * the delivered solutions.
  */
final class Rep(val stats: EnumStats, val t0: Long, val t1: Long, val times: Array[Long], val sols: IndexedSeq[Solution]) {
  def seconds: Double = (t1 - t0) / 1e9
  def firstNSeconds(n: Int): Double = if (times.length >= n) (times(n - 1) - t0) / 1e9 else Double.NaN
  /** Gaps between consecutive deliveries, counting start → first, in ns. */
  def gaps: Array[Long] = Array.tabulate(times.length)(i => times(i) - (if (i == 0) t0 else times(i - 1)))
  /** The paper's delay: the largest gap, counting last delivery → end. */
  def maxGap: Long = math.max(if (gaps.isEmpty) 0L else gaps.max, t1 - (if (times.isEmpty) t0 else times.last))
  /** This repetition without its solutions, once they passed the gate. */
  def withoutSolutions: Rep = new Rep(stats, t0, t1, times, IndexedSeq.empty)
}

final case class Metric(name: String, value: Double, unit: String, note: String = "")

object Stats {
  /** Linear-interpolation quantile of unsorted values. */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toArray.sorted
    if (s.isEmpty) return Double.NaN
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Iterable[Double]): Double = quantile(xs, 0.5)
  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  /** "(n=N: min, q1, median, q3, max, pQ)", pQ being the highest
    * percentile with at least ten samples beyond it, when there is one.
    */
  def summary(xs: Iterable[Double]): String = {
    val n = xs.size
    val qs = Seq(0.0, 0.25, 0.5, 0.75, 1.0).map(q => f"${quantile(xs, q)}%.4g").mkString(", ")
    val hi = if (n >= 20) {
      val q = math.floor(100.0 * (1.0 - 10.0 / n)).toInt
      f", p$q ${quantile(xs, q / 100.0)}%.4g"
    } else ""
    s"(n=$n: min, q1, median, q3, max $qs$hi)"
  }
}

final class Bench(w: Workload, o: Main.Opts) {
  import Stats._

  private val GenBatch = 100
  // The generator reaches its steady compiled form only after C2 compiles
  // it whole, at 10,000 calls (-XX:-TieredCompilation), and some of the
  // code it calls later still.
  private val GenWarmBuilds = 12000
  private val GenWarmSeconds = 3.0
  private val SessionReps = 3
  private val MinReps = 5
  private val HeapReps = 5
  private val WarmMinReps = 2
  private val WarmSeconds = 2.0
  private val RepDeadlineSeconds = 60.0
  private val ReplayNodes = 40
  private val ReplayCalls = 4000L
  private val ReplaySeconds = 4.0
  private val ReplayWarmPasses = 3
  private val MinReplayPasses = 11
  private val H0Calls = 101
  private val ReplayWarmSeconds = 1.0
  private val MB = 1024.0 * 1024.0

  private val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors))
  /** The Spark stage runs in traced runs only: untraced runs time the local
    * enumeration, and a Spark stage of several seconds would crowd it out.
    */
  private val stage = if (o.trace) w.spark else None
  private val collector = new SparkTaskCollector
  private val tracer = new Tracer
  private val failures = mutable.ArrayBuffer.empty[String]
  private var attempted = 0

  final class Inputs(val base: BipartiteGraph, val g0: BipartiteGraph,
      val spark: Option[SparkSession], val edges: Option[DataFrame], val sessionSeconds: Double) {
    def close(): Unit = spark.foreach(_.stop())
  }

  private def newSession(): SparkSession = {
    val scratch = o.out.toAbsolutePath.resolve("spark")
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("mbpbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", scratch.resolve("local").toString)
      .config("spark.sql.warehouse.dir", scratch.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s.sparkContext.addSparkListener(collector)
    s
  }

  /** Inputs ready: base graph generated, relabelled for repetition 0, and
    * the SparkSession (with the edge DataFrame) where the run uses one.
    */
  private def setUp(): Inputs = {
    val t0 = System.nanoTime
    val base = w.base()
    val g0 = Workloads.relabel(base, Workloads.repSeed(o.seed, 0))
    val t1 = System.nanoTime
    val spark = stage.map(_ => newSession())
    val edges = stage.collect { case _: Peel =>
      spark.get.createDataFrame(g0.edges.toSeq).toDF("src", "dst")
    }
    new Inputs(base, g0, spark, edges, (System.nanoTime - t1) / 1e9)
  }

  private def graph(in: Inputs, rep: Int): BipartiteGraph =
    if (rep == 0) in.g0 else Workloads.relabel(in.base, Workloads.repSeed(o.seed, rep))

  /** One repetition: the program's enumeration with a recording sink. */
  private def rep(g: BipartiteGraph, traced: Boolean): Rep = {
    val times = mutable.ArrayBuilder.make[Long]
    val sols = mutable.ArrayBuffer.empty[Solution]
    val stop = w.stopAt
    val deadline = System.nanoTime + (RepDeadlineSeconds * 1e9).toLong
    val t0 = System.nanoTime
    val stats =
      if (!traced) w.enumerate(g, s => { times += System.nanoTime; sols += s; sols.length < stop }, deadline)
      else {
        tracer.run += 1
        tracer.span("rep") {
          tracer.span("rs") {
            w.enumerate(g, s => { tracer.mark("sink"); times += System.nanoTime; sols += s; sols.length < stop }, deadline)
          }
        }
      }
    new Rep(stats, t0, System.nanoTime, times.result(), sols.toIndexedSeq)
  }

  /** Only repetition 0's solutions are used later (Spark gate, replay). */
  private def keep(r: Rep, i: Int): Rep = if (i == 0) r else r.withoutSolutions

  private def fail(msg: String): Unit = failures += msg

  /** Correctness gate of one repetition, outside the timed region. */
  private def check(g: BipartiteGraph, r: Rep, label: String): Unit = {
    attempted += 1
    val before = failures.length
    if (r.stats.aborted) fail(s"$label: deadline hit after ${r.sols.length} MBPs")
    if (r.sols.length != w.expected) fail(s"$label: ${r.sols.length} MBPs delivered, expected ${w.expected}")
    if (r.sols.distinct.length != r.sols.length) fail(s"$label: a solution was delivered twice")
    val bad = r.sols.find(s => !Biplex.isMaximalKBiplex(g, w.k, s.left, s.right))
    bad.foreach(s => fail(s"$label: $s is not a maximal ${w.k}-biplex"))
    w.mode match {
      case Large(theta, _, _) =>
        r.sols.find(s => s.left.length < theta || s.right.length < theta)
          .foreach(s => fail(s"$label: $s is smaller than theta=$theta"))
      case _ =>
    }
    if (failures.length > before + 3) failures.remove(before + 3, failures.length - before - 3)
  }

  private def usedHeap(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Live heap held by the run when its last delivery arrives (after a full
    * GC at that moment), above the heap in use before the run. Returns
    * (delta, absolute) in bytes.
    */
  private def heapAtEnd(g: BipartiteGraph): (Long, Long) = {
    attempted += 1
    val before = usedHeap()
    var c = 0
    var at = -1L
    w.enumerate(g, _ => {
      c += 1
      if (c == w.expected) at = usedHeap()
      c < w.stopAt
    }, System.nanoTime + (RepDeadlineSeconds * 1e9).toLong)
    if (at < 0) { fail(s"heap run: $c MBPs delivered, expected ${w.expected}"); (0L, 0L) }
    else (at - before, at)
  }

  /** The Spark stage, once per run, with its gate. Returns its metrics. */
  private def sparkStage(in: Inputs, rep0: Rep): Seq[Metric] = (stage, in.spark) match {
    case (Some(Dist), Some(spark)) =>
      attempted += 1
      val sc = spark.sparkContext
      collector.reset("mbpbench-dist")
      sc.setJobGroup("mbpbench-dist", "DistITraversal", interruptOnCancel = false)
      val t0 = System.nanoTime
      val df = DistITraversal.enumerate(spark, in.g0, w.k)
      val t1 = System.nanoTime
      val rows = df.collect()
      val t2 = System.nanoTime
      sc.clearJobGroup()
      collector.await(sc)
      val dist = rows.map(r => Solution.of(r.getSeq[Int](0), r.getSeq[Int](1))).toSet
      if (dist != rep0.sols.toSet)
        fail(s"DistITraversal found ${dist.size} MBPs, the local run ${rep0.sols.toSet.size}; the sets differ")
      val tasks = collector.taskSeconds.toSeq
      val rowsIn = Plan.rowsIn(df)
      Seq(
        Metric("dist_enum_s", (t2 - t0) / 1e9, "s", "enumerate + collect"),
        Metric("dist.plan_s", (t1 - t0) / 1e9, "s", "inside enumerate, before the action"),
        Metric("dist.tasks", tasks.length, "count"),
        Metric("dist.task_p50_s", median(tasks), "s"),
        Metric("dist.task_max_s", if (tasks.isEmpty) 0 else tasks.max, "s"),
        Metric("dist.skew", ratio(if (tasks.isEmpty) 0 else tasks.max, median(tasks)), "ratio", "max/median task"),
        Metric("dist.task_busy_s", collector.runSeconds, "s"),
        Metric("dist.dup_ratio", if (rowsIn > 0) 1.0 - dist.size.toDouble / rowsIn else 0.0, "ratio",
          s"1 - distinct/reported, $rowsIn rows reported"),
      )
    case (Some(Peel(d, coreL, coreR)), Some(spark)) =>
      attempted += 1
      val sc = spark.sparkContext
      collector.reset("mbpbench-peel")
      sc.setJobGroup("mbpbench-peel", "CoreDecomposition", interruptOnCancel = false)
      val t0 = System.nanoTime
      val core = CoreDecomposition.dCoreEdges(in.edges.get, d)
      core.count()
      val t1 = System.nanoTime
      sc.clearJobGroup()
      collector.await(sc)
      val out = Seq(
        Metric("peel_s", (t1 - t0) / 1e9, "s", s"dCoreEdges(edges, $d).count()"),
        Metric("peel.jobs", collector.jobs, "count"),
        Metric("peel.stages", collector.stagesDone, "count"),
        Metric("peel.shuffle_mb", collector.shuffleBytes / MB, "MB"),
        Metric("peel.task_busy_s", collector.runSeconds, "s"),
      )
      val ls = core.select("src").distinct().collect().map(_.getLong(0).toInt).sorted
      val rs = core.select("dst").distinct().collect().map(_.getLong(0).toInt).sorted
      val (cl, cr) = CoreReduction.alphaBetaCore(in.g0, d, d)
      if (!(ls.sameElements(cl) && rs.sameElements(cr)))
        fail(s"Spark $d-core has ${ls.length}x${rs.length} vertices, alphaBetaCore ${cl.length}x${cr.length}; the sets differ")
      if (cl.length != coreL || cr.length != coreR)
        fail(s"$d-core has ${cl.length}x${cr.length} vertices, recorded ${coreL}x$coreR")
      out
    case _ => Seq.empty
  }

  def run(): Unit = {
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    var in = setUp()
    val coldS = (System.currentTimeMillis - jvmStart) / 1000.0

    // JIT warm-up on relabellings no timed repetition uses.
    val warmEnd = System.nanoTime + (WarmSeconds * 1e9).toLong
    var wi = 0
    while (wi < WarmMinReps || System.nanoTime < warmEnd) {
      rep(Workloads.relabel(in.base, Workloads.repSeed(o.seed, -1 - wi)), traced = false)
      wi += 1
    }

    // Set-up time is the program's graph generation, per build, timed as
    // batches of GenBatch back-to-back BipartiteGen builds: one batch before
    // each timed repetition, so that the batches span the same time as the
    // repetitions, after an untimed warm-up of the generator.
    var genEdges = 0L
    var genBuilds = 0L
    val genS = mutable.ArrayBuffer.empty[Double]
    def genBatch(): Unit = {
      val t0 = System.nanoTime
      var j = 0
      while (j < GenBatch) { genEdges += w.base().numEdges; j += 1 }
      genS += (System.nanoTime - t0) / 1e9 / GenBatch
      genBuilds += GenBatch
    }
    val genWarmEnd = System.nanoTime + (GenWarmSeconds * 1e9).toLong
    while (genBuilds < GenWarmBuilds || System.nanoTime < genWarmEnd) { genEdges += w.base().numEdges; genBuilds += 1 }
    // The SparkSession, restarted a few times where the run uses one.
    val sessionS = mutable.ArrayBuffer.empty[Double]
    while (stage.isDefined && sessionS.length < SessionReps) {
      in.close()
      in = setUp()
      sessionS += in.sessionSeconds
    }

    // Timed repetitions; traced runs alternate untraced/traced pairs on the
    // same graph so the tracing overhead compares like with like.
    val plain = mutable.ArrayBuffer.empty[Rep]
    val traced = mutable.ArrayBuffer.empty[Rep]
    var replay: ReplayRun = null
    val end = System.nanoTime + (o.seconds * 1e9).toLong
    var i = 0
    while (i < MinReps || System.nanoTime < end) {
      genBatch()
      val g = graph(in, i)
      if (!o.trace) {
        val r = rep(g, traced = false); check(g, r, s"rep $i"); plain += keep(r, i)
      } else {
        val order = if (i % 2 == 0) Seq(false, true) else Seq(true, false)
        for (t <- order) {
          val r = rep(g, traced = t); check(g, r, s"rep $i${if (t) " traced" else ""}")
          if (t) traced += keep(r, i) else plain += keep(r, i)
        }
        if (i == 0) replay = new ReplayRun(in.g0, traced.head.sols) else replay.pass()
      }
      i += 1
    }
    while (replay != null && replay.means.length < MinReplayPasses) replay.pass()
    if (genEdges != in.base.numEdges * genBuilds) fail("BipartiteGen built a graph of another size")
    val rep0 = plain.head
    val heaps = (0 until HeapReps).map(i => heapAtEnd(graph(in, i)))
    val heapDelta = median(heaps.map(_._1.toDouble))
    val heapAbs = median(heaps.map(_._2.toDouble))
    val sparkMetrics = sparkStage(in, rep0)

    val firstN = plain.map(_.firstNSeconds(w.mode.firstN))
    val gapP50 = plain.map(r => quantile(r.gaps.map(_ / 1e6), 0.5))
    val gapP99 = plain.map(r => quantile(r.gaps.map(_ / 1e6), 0.99))
    // Timings are the fastest repetition (batch, for setup_s). On a shared
    // host, other tenants slow the allocation-heavy enumeration by up to
    // 1.8x in phases lasting seconds; the same graph repeated in one JVM
    // ran 320-600 ms. Which phases a run meets moves its median by up to a
    // quarter between runs; the fastest repetition, taken in a quiet
    // phase, moves far less. The summaries keep the median.
    val e2e = Seq(
      Metric("setup_s", genS.min, "s", s"BipartiteGen, per build, fastest batch of $GenBatch ${summary(genS)}"),
      Metric("first_n_s", firstN.min, "s", s"until MBP ${w.mode.firstN}, fastest repetition ${summary(firstN)}"),
      Metric("enum_s", plain.map(_.seconds).min, "s", s"call to return, fastest repetition ${summary(plain.map(_.seconds))}"),
      Metric("delay_p50_ms", gapP50.min, "ms", s"per-repetition median gap, lowest ${summary(gapP50)}"),
      Metric("delay_p99_ms", gapP99.min, "ms", s"per-repetition p99 gap, lowest ${summary(gapP99)}"),
      Metric("heap_peak_mb", heapDelta / MB, "MB", s"live heap at the last delivery above the pre-run heap (median of $HeapReps)"),
    )

    val layer = if (!o.trace) Seq.empty[Metric] else layerMetrics(replay, plain, traced, median(genS), coldS, heapAbs)
    val extra = Seq(
      Metric("fail_ratio", ratio(failures.length, attempted), "ratio", s"(${failures.length}/$attempted)"),
    ) ++ (if (stage.isDefined) Seq(Metric("spark.session_s", median(sessionS), "s", s"SparkSession start in set-up ${summary(sessionS)}")) else Nil) ++
      sparkMetrics ++ layer.filter(m => !Bench.layerNames.contains(m.name))
    in.close()

    val reported = if (o.trace) layer.filter(m => Bench.layerNames.contains(m.name)) else e2e
    val correct = failures.isEmpty
    val out = new StringBuilder
    out.append(s"workload ${w.name}  seed ${o.seed}  trace ${if (o.trace) 1 else 0}  repetitions ${plain.length + traced.length}\n")
    out.append(s"  ${w.describe}\n")
    for (m <- reported ++ extra)
      out.append(f"  ${m.name}%-24s ${m.value}%14.6g ${m.unit}%-6s ${m.note}\n")
    failures.foreach(f => out.append(s"  FAILED: $f\n"))
    print(out)

    val json = Bench.resultJson(correct, attempted, failures.length, reported)
    val tag = s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    Files.createDirectories(o.out)
    Files.write(o.out.resolve(s"$tag.txt"), (out.toString + json + "\n").getBytes(StandardCharsets.UTF_8))
    if (o.trace) tracer.write(o.out.resolve(s"$tag.spans.jsonl"))
    def arr(xs: collection.Seq[Double]) = xs.map(_.toString).mkString("[", ", ", "]")
    Files.write(o.out.resolve(s"$tag.reps.json"),
      (s"""{"setup_s": ${arr(genS)}, "first_n_s": ${arr(firstN)}, "enum_s": ${arr(plain.map(_.seconds))}, """ +
        s""""delay_p50_ms": ${arr(gapP50)}, "delay_p99_ms": ${arr(gapP99)}}\n""").getBytes(StandardCharsets.UTF_8))
    println(json)
  }

  /** The replay of a traced run (see [[Replay]]) on repetition 0's graph
    * and solutions. Untimed passes first bring the replay's own code and the
    * tracer to compiled code. Timed passes then run one per repetition pair,
    * so that they span the same time as the repetitions: a per-call time is
    * the median over passes of each pass's mean. The first timed pass goes
    * to the run's tracer, whose spans are written out.
    */
  private final class ReplayRun(g0: BipartiteGraph, sols: Seq[Solution]) {
    val (eg, cfg, engineSols, reduceS, kept) = Replay.engineView(w, g0, sols, tracer)
    private def sample(tr: Tracer) = Replay.sample(w, eg, cfg, engineSols, Workloads.repSeed(o.seed, 1 << 20),
      ReplayNodes, ReplayCalls, ReplaySeconds, tr)
    val warmPasses: Int = {
      val warmEnd = System.nanoTime + (ReplayWarmSeconds * 1e9).toLong
      var n = 0
      while (n < ReplayWarmPasses || System.nanoTime < warmEnd) { sample(new Tracer); n += 1 }
      n
    }
    // Recording a span costs about as much as a small call, so the cost
    // measured on empty spans is taken off every per-call time.
    val cost: SpanCost = SpanCost.measure()
    /** Per timed pass: mean µs per call of eas (self time), extend, ctx, rsk. */
    val means = mutable.ArrayBuffer.empty[Map[String, Double]]
    var last: Replay = _

    def pass(): Unit = {
      val tr = if (means.isEmpty) tracer else new Tracer
      last = sample(tr)
      means += Map("eas" -> tr.meanUs("eas", self = true, cost)) ++
        Seq("extend", "ctx", "rsk").map(n => n -> tr.meanUs(n, self = false, cost))
    }

    def us(name: String): Double = median(means.map(_(name)))
  }

  /** Per-layer metrics of a traced run. */
  private def layerMetrics(rr: ReplayRun, plain: collection.Seq[Rep], traced: collection.Seq[Rep], genS: Double,
      coldS: Double, heapAbs: Double): Seq[Metric] = {
    val statsOf = plain.map(_.stats)
    val links = median(statsOf.map(_.links.toDouble))
    val eas = median(statsOf.map(_.easCalls.toDouble))
    val sols = median(statsOf.map(_.solutions.toDouble))
    val enumS = median(plain.map(_.seconds))
    val overhead = median(traced.map(_.seconds)) / enumS - 1.0

    val h0 = (0 until H0Calls).map { _ =>
      val t0 = System.nanoTime
      tracer.span("h0")(Biplex.initialLeftAnchored(rr.eg, w.k))
      (System.nanoTime - t0) / 1e9
    }
    val rp = rr.last
    val easUs = rr.us("eas")
    val extendUs = rr.us("extend")
    val cost = rr.cost
    val sample = s"replay: ${rp.nodes} nodes, ${rp.easCalls} EAS calls, median of ${rr.means.length} passes after ${rr.warmPasses}"
    val coreMetrics = w.mode match {
      case Large(_, _, _) => Seq(
        Metric("core.reduce_s", rr.reduceS, "s", "CoreReduction.alphaBetaCore"),
        Metric("core.kept_ratio", rr.kept, "ratio", "core vertices / all vertices"))
      case _ => Nil
    }
    Seq(
      Metric("gen.graph_s", genS, "s", s"BipartiteGen, per build in batches of $GenBatch"),
      Metric("setup.cold_s", coldS, "s", "process start until the first set-up is ready"),
      Metric("rs.links", links, "count", "EnumStats, median over repetitions"),
      Metric("rs.eas_calls", eas, "count"),
      Metric("rs.links_per_mbp", ratio(links, sols), "ratio"),
      Metric("rs.eas_per_mbp", ratio(eas, sols), "ratio"),
      Metric("rs.mbp_per_link", ratio(sols, links), "ratio", "useful outcomes / attempts"),
      Metric("biplex.h0_s", median(h0), "s", s"initialLeftAnchored, median of $H0Calls calls"),
      Metric("eas.call_us", easUs, "us", s"self time; $sample"),
      Metric("eas.locals_per_call", ratio(rp.locals, rp.easCalls), "ratio", sample),
      Metric("ctx.call_us", rr.us("ctx"), "us", sample),
      Metric("rsk.call_us", rr.us("rsk"), "us", s"existsAddableRight; $sample"),
      Metric("rsk.reject_ratio", ratio(rp.rskRejects, rp.rskCalls), "ratio", sample),
      Metric("extend.call_us", extendUs, "us", sample),
      Metric("extend.excluded_ratio", ratio(rp.excludedAfter, rp.extensions), "ratio",
        s"${rp.excludedBefore} more local solutions excluded before extension; $sample"),
      Metric("extend.visited_ratio", ratio(rp.visitedHits, rp.extensions), "ratio", s"hits on delivered MBPs; $sample"),
      Metric("eas.est_s", eas * easUs / 1e6, "s", "rs.eas_calls x eas.call_us"),
      Metric("extend.est_s", links * extendUs / 1e6, "s", "rs.links x extend.call_us"),
      Metric("trace.span_ns", cost.spanNs, "ns",
        f"tracing cost taken off per-call times: ${cost.spanNs}%.1f ns per span, ${cost.childNs}%.1f ns per child span"),
      Metric("replay.est_share", ratio((eas * easUs + links * extendUs) / 1e6, enumS), "ratio",
        "(eas.est_s + extend.est_s) / untraced enum_s; at most 1 when the replay's calls cost what the engine's do"),
      Metric("replay.nodes", rp.nodes, "count"),
      Metric("replay.eas_calls", rp.easCalls, "count"),
      Metric("replay.extend_per_link", ratio(ratio(rp.extensions, rp.nodes), ratio(links, sols)), "ratio",
        "replayed extensions per node / engine links per MBP"),
      Metric("delay.max_ms", median(plain.map(_.maxGap / 1e6)), "ms", "median over repetitions"),
      Metric("heap.after_gc_mb", heapAbs / MB, "MB", "whole heap after GC at the last delivery"),
      Metric("trace.overhead_ratio", overhead, "ratio", "traced / untraced enum_s - 1"),
    ) ++ coreMetrics
  }
}

object Bench {
  /** Per-layer metrics every workload reports (the `--trace 1` JSON). */
  val layerNames: Set[String] = Set(
    "gen.graph_s", "setup.cold_s", "rs.links", "rs.eas_calls", "rs.links_per_mbp", "rs.eas_per_mbp",
    "rs.mbp_per_link", "biplex.h0_s", "eas.call_us", "eas.locals_per_call", "ctx.call_us", "rsk.call_us",
    "rsk.reject_ratio", "extend.call_us", "extend.excluded_ratio", "extend.visited_ratio", "eas.est_s",
    "extend.est_s", "replay.est_share", "replay.nodes", "replay.eas_calls", "replay.extend_per_link", "delay.max_ms",
    "heap.after_gc_mb", "trace.overhead_ratio")

  def resultJson(correct: Boolean, attempted: Int, failed: Int, ms: Seq[Metric]): String = {
    def num(d: Double) = if (d.isNaN || d.isInfinite) "null" else d.toString
    val body = ms.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}

/** Rows the distributed plan read before `distinct`, from the SQL metrics of
  * its scan nodes (0 when the plan exposes none).
  */
object Plan {
  import org.apache.spark.sql.execution.SparkPlan
  import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}

  def rowsIn(df: DataFrame): Long = {
    def walk(p: SparkPlan): Seq[SparkPlan] = p match {
      case a: AdaptiveSparkPlanExec => walk(a.executedPlan)
      case q: QueryStageExec        => walk(q.plan)
      case other                    => other +: other.children.flatMap(walk)
    }
    walk(df.queryExecution.executedPlan)
      .filter(n => n.children.isEmpty)
      .flatMap(_.metrics.get("numOutputRows"))
      .map(_.value)
      .sum
  }
}
