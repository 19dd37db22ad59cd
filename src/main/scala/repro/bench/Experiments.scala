package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{IMB, InflationBaseline}
import repro.casestudy.Structures
import repro.core._
import repro.gen.{BipartiteGen, FraudGen}
import repro.graph.{BipartiteGraph, VertexSets}
import repro.spark.DistITraversal
import scala.collection.mutable
import scala.util.Random

/** The paper's evaluation experiments (Section 6), one function per table;
  * shared by the bench suites (bench/src/test) and the spark-submit jobs.
  *
  * Each run is time-boxed (REPRO_BUDGET_MS, default 6 s — the scaled-down
  * version of the paper's 24 h INF); FaPlexen additionally gets the
  * paper's OUT marker when the inflated graph would not fit.
  */
object Experiments {

  val algos: Seq[String] = Seq("iMB", "FaPlexen", "bTraversal", "iTraversal")

  /** iTraversal in its scalability mode (two-hop seed restriction) — used
    * for the first-N runs on large graphs, as the paper's implementation
    * does to reach billion-edge inputs. Exact for every MBP with |R| > k.
    */
  val iTraversalScaled: TraversalConfig = TraversalConfig.iTraversal.copy(twoHopSeeds = true)

  /** Inflation memory guard ~ what 32 GB held for the paper, scaled. */
  val outEdgeLimit: Long = sys.env.getOrElse("REPRO_OUT_EDGES", "30000000").toLong

  /** Run one algorithm until it finishes, `sink` stops it or `dl` passes.
    * Returns whether it finished within the deadline, or None when
    * FaPlexen's inflated graph would not fit (the paper's OUT).
    */
  private def runAlgo(algo: String, g: BipartiteGraph, k: Int, iTraversalCfg: TraversalConfig,
                      sink: Solution => Boolean, dl: Long): Option[Boolean] = algo match {
    case "iMB"        => Some(IMB.enumerate(g, k, sink, 0, 0, dl))
    case "FaPlexen"   =>
      if (InflationBaseline.inflatedEdges(g) > outEdgeLimit) None
      else Some(InflationBaseline.enumerate(g, k, sink, dl))
    case "bTraversal" => Some(!ReverseSearch.run(g, k, TraversalConfig.bTraversal, sink, dl).aborted)
    case "iTraversal" => Some(!ReverseSearch.run(g, k, iTraversalCfg, sink, dl).aborted)
    case other        => sys.error(s"unknown algorithm $other")
  }

  /** Run one algorithm until n solutions; returns (cell, found).
    * The cell is elapsed millis, "INF" (budget hit) or "OUT".
    */
  def runFirstN(algo: String, g: BipartiteGraph, k: Int, n: Int, budgetMs: Long = Harness.budgetMs): (String, Long) = {
    Console.err.println(s"[bench] runFirstN $algo on $g k=$k n=$n")
    var found = 0L
    val dl = Harness.deadline(budgetMs)
    def sink(s: Solution): Boolean = { found += 1; found < n }
    val (finished, ms) = Harness.timed(runAlgo(algo, g, k, iTraversalScaled, sink, dl))
    (finished.fold("OUT")(f => Harness.cell(ms, f || found >= n)), found)
  }

  // -------------------------------------------------------------------
  // E2 — Figure 7: running time on real datasets (first n MBPs)
  // -------------------------------------------------------------------

  def runtimeAcrossDatasets(datasets: Seq[String], k: Int, n: Int): Harness.Table = {
    val rows = datasets.map { name =>
      Console.err.println(s"[bench] building $name")
      val g = BipartiteGen.dataset(name).build()
      name +: algos.map(a => runFirstN(a, g, k, n)._1)
    }
    Harness.Table("e2_datasets", s"Fig 7(a): time (ms) to first $n MBPs, k=$k",
      "dataset" +: algos, rows).emit()
  }

  def runtimeVaryK(dataset: String, ks: Seq[Int], n: Int, algosUsed: Seq[String]): Harness.Table = {
    val g = BipartiteGen.dataset(dataset).build()
    val rows = ks.map { k =>
      s"k=$k" +: algosUsed.map(a => runFirstN(a, g, k, n)._1)
    }
    Harness.Table(s"e2_varyk_$dataset", s"Fig 7(b,c): $dataset, time (ms) to first $n MBPs vs k",
      "k" +: algosUsed, rows).emit()
  }

  def runtimeVaryN(dataset: String, k: Int, ns: Seq[Int], algosUsed: Seq[String]): Harness.Table = {
    val g = BipartiteGen.dataset(dataset).build()
    val rows = ns.map { n =>
      s"n=$n" +: algosUsed.map(a => runFirstN(a, g, k, n)._1)
    }
    Harness.Table(s"e2_varyn_$dataset", s"Fig 7(d,e): $dataset, time (ms) to first n MBPs, k=$k",
      "#MBPs" +: algosUsed, rows).emit()
  }

  // -------------------------------------------------------------------
  // E3 — Figure 8: delay (full enumeration, small datasets)
  // -------------------------------------------------------------------

  /** Max delay in microseconds over a full enumeration, or INF / OUT. */
  def runDelay(algo: String, g: BipartiteGraph, k: Int, budgetMs: Long = Harness.budgetMs): String = {
    val meter = new Harness.DelayMeter
    val dl = Harness.deadline(budgetMs)
    runAlgo(algo, g, k, TraversalConfig.iTraversal, _ => { meter.tick(); true }, dl) match {
      case None        => "OUT"
      case Some(true)  => s"${meter.finish()}"
      case Some(false) => "INF"
    }
  }

  def delayTable(datasets: Seq[(String, BipartiteGraph)], ks: Seq[Int],
                 budgetMs: Long = Harness.budgetMs * 3): Harness.Table = {
    val rows = for ((name, g) <- datasets; k <- ks) yield {
      Seq(name, s"$k") ++ algos.map(a => runDelay(a, g, k, budgetMs))
    }
    Harness.Table("e3_delay", "Fig 8: max delay (microseconds), full enumeration",
      Seq("dataset", "k") ++ algos, rows).emit()
  }

  // -------------------------------------------------------------------
  // E4 — Figure 9: synthetic scalability (ER graphs)
  // -------------------------------------------------------------------

  def scalabilityVertices(nVertices: Seq[Int], density: Int, k: Int, n: Int): Harness.Table = {
    val used = Seq("bTraversal", "iTraversal")
    val rows = nVertices.map { nv =>
      val g = BipartiteGen.er(nv / 2, nv / 2, nv.toLong * density, seed = 7)
      s"$nv" +: used.map(a => runFirstN(a, g, k, n)._1)
    }
    Harness.Table("e4_vertices", s"Fig 9(a): ER graphs, density $density, time (ms) to first $n MBPs, k=$k",
      "#vertices" +: used, rows).emit()
  }

  def scalabilityDensity(nVertices: Int, densities: Seq[Int], k: Int, n: Int): Harness.Table = {
    val used = Seq("bTraversal", "iTraversal")
    val rows = densities.map { d =>
      val g = BipartiteGen.er(nVertices / 2, nVertices / 2, nVertices.toLong * d, seed = 8)
      s"$d" +: used.map(a => runFirstN(a, g, k, n)._1)
    }
    Harness.Table("e4_density", s"Fig 9(b): ER graphs, $nVertices vertices, time (ms) to first $n MBPs, k=$k",
      "density" +: used, rows).emit()
  }

  // -------------------------------------------------------------------
  // E5 — Figure 10: large-MBP enumeration vs theta
  // -------------------------------------------------------------------

  def largeMbpTable(datasets: Seq[String], thetas: Seq[Int], k: Int): Harness.Table = {
    val rows = for (name <- datasets; theta <- thetas) yield {
      val g = BipartiteGen.dataset(name).build()
      // iTraversal extension (includes its own core reduction).
      var n1 = 0L
      val (st1, ms1) = Harness.timed(
        LargeMbp.enumerate(g, k, theta, theta, s => { n1 += 1; true },
          deadlineNanos = Harness.deadline()))
      // iMB with the same (theta-k)-core pre-reduction (as the paper does).
      var n2 = 0L
      val (coreL, coreR) = CoreReduction.dCore(g, theta - k)
      val (sub, _, _) = g.inducedSubgraph(coreL, coreR)
      val (completed, ms2) = Harness.timed(
        IMB.enumerate(sub, k, s => { n2 += 1; true }, theta, theta, Harness.deadline()))
      Seq(name, s"$theta",
        Harness.cell(ms1, !st1.aborted), Harness.cell(ms2, completed),
        s"$n1", s"$n2")
    }
    Harness.Table("e5_large", s"Fig 10: large MBPs (both sides >= theta), k=$k, time (ms)",
      Seq("dataset", "theta", "iTraversal", "iMB", "#MBP(iTrav)", "#MBP(iMB)"), rows).emit()
  }

  // -------------------------------------------------------------------
  // E6 — Figure 11: solution-graph links + runtime of the four variants
  // -------------------------------------------------------------------

  val variantNames: Seq[(String, TraversalConfig)] = Seq(
    "bTraversal"          -> TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20),
    "iTraversal-ES-RS"    -> TraversalConfig.iTraversalNoESNoRS,
    "iTraversal-ES"       -> TraversalConfig.iTraversalNoES,
    "iTraversal"          -> TraversalConfig.iTraversal,
  )

  /** Links and time (ms) of each variant on (g, k): the cells of one row. */
  private def variantCells(g: BipartiteGraph, k: Int, budgetMs: Long): Seq[String] =
    variantNames.flatMap { case (_, cfg) =>
      val (stats, ms) = Harness.timed(
        ReverseSearch.run(g, k, cfg, _ => true, Harness.deadline(budgetMs)))
      Seq(if (stats.aborted) s">=${stats.links} (INF)" else s"${stats.links}",
        Harness.cell(ms, !stats.aborted))
    }

  private def variantHeader: Seq[String] =
    variantNames.flatMap { case (n, _) => Seq(s"$n links", s"$n ms") }

  def solutionGraphTable(datasets: Seq[(String, BipartiteGraph)], k: Int,
                         budgetMs: Long = Harness.budgetMs * 3): Harness.Table = {
    val rows = datasets.map { case (name, g) => name +: variantCells(g, k, budgetMs) }
    Harness.Table(s"e6_links_k$k", s"Fig 11(a,b): solution-graph links and time (ms), k=$k",
      "dataset" +: variantHeader, rows).emit()
  }

  def solutionGraphVaryK(dataset: String, g: BipartiteGraph, ks: Seq[Int],
                         budgetMs: Long = Harness.budgetMs * 3): Harness.Table = {
    val rows = ks.map(k => s"k=$k" +: variantCells(g, k, budgetMs))
    Harness.Table(s"e6_varyk_$dataset", s"Fig 11(c,d): $dataset, links and time (ms) vs k",
      "k" +: variantHeader, rows).emit()
  }

  // -------------------------------------------------------------------
  // E7 — Figure 12: EnumAlmostSat implementations
  // -------------------------------------------------------------------

  /** Average time (microseconds) of each EnumAlmostSat variant over
    * `count` random almost-satisfying graphs built from the first `count`
    * MBPs of the dataset (the paper's protocol).
    */
  def enumAlmostSatTable(dataset: String, ks: Seq[Int], count: Int): Harness.Table = {
    val g = BipartiteGen.dataset(dataset).build()
    val variants = EnumAlmostSat.allVariants
    val rows = ks.map { k =>
      val (mbps, _) = ReverseSearch.collectFirst(g, k, TraversalConfig.iTraversal, count,
        Harness.deadline(Harness.budgetMs * 4))
      val rnd = new Random(31 * k + dataset.hashCode)
      val cases = mbps.flatMap { s =>
        val outside = (0 until g.nL).filter(v => !VertexSets.contains(s.left, v))
        if (outside.isEmpty) None
        else Some((s, outside(rnd.nextInt(outside.length))))
      }
      val cells = variants.map { variant =>
        val dl = Harness.deadline(Harness.budgetMs * 2)
        val (_, ms) = Harness.timed {
          var go = true
          cases.foreach { case (s, v) =>
            if (go && System.nanoTime < dl)
              go = EnumAlmostSat.run(g, k, s.left, s.right, v, variant, (_, _) => true)
          }
        }
        if (System.nanoTime >= dl) "INF"
        else if (cases.isEmpty) "-"
        else f"${ms * 1000.0 / cases.length}%.1f"
      }
      s"k=$k" +: cells
    }
    Harness.Table(s"e7_eas_$dataset",
      s"Fig 12: $dataset, avg EnumAlmostSat time (microseconds) over up to $count almost-satisfying graphs",
      "k" +: variants.map(_.toString), rows).emit()
  }

  // -------------------------------------------------------------------
  // E8 — Figure 13: fraud-detection case study
  // -------------------------------------------------------------------

  def fraudTable(thetaL: Int, thetaRs: Seq[Int]): Harness.Table = {
    val inst = FraudGen.generate()
    val g = inst.graph
    val trueL = inst.fakeUsers
    val trueR = inst.fakeProducts
    def fmt(m: Structures.Metrics): Seq[String] =
      Seq(
        if (m.precision.isNaN) "ND" else f"${m.precision}%.2f",
        f"${m.recall}%.2f",
        if (m.f1.isNaN) "ND" else f"${m.f1}%.2f",
      )
    val dl = () => Harness.deadline(Harness.budgetMs * 2)
    val rows = mutable.ArrayBuffer.empty[Seq[String]]
    for (tr <- thetaRs) {
      def detect(name: String, sols: => Set[Solution]): Unit = {
        val (lset, rset) = Structures.vertexUnion(sols)
        rows += Seq(name, s"$tr") ++ fmt(Structures.metrics(lset, rset, trueL, trueR))
      }
      detect("biclique", Structures.bicliques(g, thetaL, tr, dl()))
      detect("1-biplex", Structures.kBiplexes(g, 1, thetaL, tr, dl()))
      detect("2-biplex", Structures.kBiplexes(g, 2, thetaL, tr, dl()))
      val (cl, cr) = Structures.alphaBetaCore(g, tr, thetaL)
      rows += Seq("ab-core", s"$tr") ++ fmt(Structures.metrics(cl, cr, trueL, trueR))
      for (delta <- Seq(0.1, 0.2)) {
        detect(f"QB-$delta%.1f", Structures.deltaQuasiBicliques(g, delta, thetaL, tr, dl()))
      }
    }
    Harness.Table("e8_fraud",
      s"Fig 13: fraud detection, thetaL=$thetaL (precision / recall / F1 per thetaR)",
      Seq("method", "thetaR", "precision", "recall", "F1"), rows.toSeq).emit()
  }

  // -------------------------------------------------------------------
  // E9 — distributed enumeration (abstract's scalability claim)
  // -------------------------------------------------------------------

  def distributedTable(spark: SparkSession, nVertices: Int, density: Int, k: Int): Harness.Table = {
    val g = BipartiteGen.er(nVertices / 2, nVertices / 2, nVertices.toLong * density, seed = 9)
    val (localSet, localMs) = Harness.timed(
      ReverseSearch.collectAll(g, k, TraversalConfig.iTraversal)._1)
    val (distSet, distMs) = Harness.timed(DistITraversal.collectSolutions(spark, g, k))
    val rows = Seq(
      Seq("local iTraversal", s"${localSet.size}", s"$localMs"),
      Seq("distributed iTraversal", s"${distSet.size}", s"$distMs"),
      Seq("solution sets equal", s"${localSet == distSet}", "-"),
    )
    Harness.Table("e9_distributed",
      s"Distributed iTraversal on ER($nVertices vertices, density $density), k=$k",
      Seq("run", "#MBP", "ms"), rows).emit()
  }
}
