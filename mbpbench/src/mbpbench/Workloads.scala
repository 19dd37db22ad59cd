package mbpbench

import repro.core._
import repro.gen.BipartiteGen
import repro.graph.BipartiteGraph
import scala.collection.mutable

/** What a workload enumerates on each repetition; `firstN` is the delivery
  * reported as `first_n_s`.
  */
sealed trait Mode { def firstN: Int }
/** Exact iTraversal to exhaustion; `expected` is the recorded MBP count of
  * the base graph, which relabelling cannot change.
  */
final case class Full(expected: Int, firstN: Int) extends Mode
/** `LargeMbp.enumerate` with θL = θR = theta until the n-th large MBP. */
final case class Large(theta: Int, n: Int, firstN: Int) extends Mode

/** The Spark stage a workload runs once per run, outside the timed region. */
sealed trait SparkStage
/** `DistITraversal.enumerate` + collect; its set must equal the local one. */
case object Dist extends SparkStage
/** `CoreDecomposition.dCoreEdges(edges, d)`; its vertex sets must equal
  * `CoreReduction.alphaBetaCore(g, d, d)` and the recorded core size.
  */
final case class Peel(d: Int, coreL: Int, coreR: Int) extends SparkStage

/** One benchmark workload: a fixed base graph, a k, an enumeration mode and
  * an optional Spark stage. Every repetition runs on a fresh relabelling of
  * the base graph drawn from the run seed (see [[Workloads.relabel]]).
  */
final case class Workload(
    name: String,
    graphName: String,
    base: () => BipartiteGraph,
    k: Int,
    mode: Mode,
    spark: Option[SparkStage],
) {
  /** The delivery count at which a repetition stops (MaxValue = never). */
  def stopAt: Int = mode match {
    case Large(_, n, _) => n
    case Full(_, _)     => Int.MaxValue
  }

  /** The MBPs every repetition must deliver: the recorded count, or n. */
  def expected: Int = mode match {
    case Large(_, n, _) => n
    case Full(e, _)     => e
  }

  /** Run the program's enumeration on g, delivering to `sink`. */
  def enumerate(g: BipartiteGraph, sink: Solution => Boolean, deadlineNanos: Long): EnumStats =
    mode match {
      case Full(_, _) => ReverseSearch.run(g, k, TraversalConfig.iTraversal, sink, deadlineNanos)
      case Large(theta, _, _) =>
        LargeMbp.enumerate(g, k, theta, theta, sink, deadlineNanos = deadlineNanos)
    }

  def describe: String = {
    val what = mode match {
      case Full(e, n)      => s"exact iTraversal, full enumeration ($e MBPs; first_n_s at MBP $n)"
      case Large(theta, n, f) =>
        s"LargeMbp theta=$theta (two-hop seeding, lossless as theta > k), stop at $n large MBPs; first_n_s at MBP $f"
    }
    val sp = spark match {
      case Some(Dist)          => "; then DistITraversal on the same graph"
      case Some(Peel(d, _, _)) => s"; then the Spark $d-core peel of the same graph"
      case None                => ""
    }
    val b = base()
    s"$graphName (${b.nL}x${b.nR}, ${b.numEdges} edges), k=$k, $what$sp"
  }
}

object Workloads {

  val all: Seq[Workload] = Seq(
    Workload("er60-full", "ER 30x30, 90 edges, seed 9", () => BipartiteGen.er(30, 30, 90, seed = 9), k = 1,
      Full(expected = 4182, firstN = 1000), spark = Some(Dist)),
    Workload("cfat-large", "cfat stand-in", () => BipartiteGen.dataset("cfat").build(), k = 1,
      Large(theta = 4, n = 1000, firstN = 100), spark = Some(Peel(d = 3, coreL = 76, coreR = 78))),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Seed of repetition `rep` of a run with seed `seed` (SplitMix64 mix). */
  def repSeed(seed: Long, rep: Int): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + rep.toLong + 0x632BE59BD9B4E019L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** The base graph with ids renumbered by descending degree on each side,
    * ties broken by `seed`.
    *
    * The catalog generators give low ids to high-degree vertices and the
    * traversal visits seeds in id order, so a uniformly random relabelling
    * changes the work to the first N MBPs by orders of magnitude. Degree
    * order keeps that hub-first shape while the seed still picks one of the
    * many labellings; the relabelled graph is isomorphic to the base one,
    * so MBP and core counts are the same for every seed.
    */
  def relabel(g: BipartiteGraph, seed: Long): BipartiteGraph = {
    val rnd = new scala.util.Random(seed)
    def newIds(n: Int, deg: Int => Int): Array[Int] = {
      val tie = Array.fill(n)(rnd.nextLong())
      val order = (0 until n).sortWith { (a, b) =>
        val da = deg(a)
        val db = deg(b)
        da > db || (da == db && tie(a) < tie(b))
      }
      val id = new Array[Int](n)
      var i = 0
      while (i < n) { id(order(i)) = i; i += 1 }
      id
    }
    val idL = newIds(g.nL, g.degL)
    val idR = newIds(g.nR, g.degR)
    val edges = new mutable.ArrayBuffer[(Int, Int)](g.numEdges.toInt)
    g.edges.foreach { case (v, u) => edges += ((idL(v), idR(u))) }
    BipartiteGraph.fromEdges(g.nL, g.nR, edges)
  }
}
