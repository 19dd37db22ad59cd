package mbpbench

import repro.core._
import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** Bounded replay of the ThreeStep expansions of delivered MBPs through the
  * program's public functions, with a span around each call.
  *
  * For each sampled MBP (L, R) it follows the engine's order: seeds in
  * ascending id (two-hop filtered when the workload seeds two-hop, θ-pruned
  * in large mode), `EnumAlmostSat.buildCtx` once, `EnumAlmostSat.run` per
  * seed, and per local solution the right-shrinking test
  * (`Biplex.existsAddableRight`), the exclusion check and `Biplex.extend`,
  * all inside an `emit` span, so that the self time of an `eas` span is the
  * time spent inside `EnumAlmostSat.run` itself.
  * The exclusion set is node-local (the seeds already processed at this
  * node); the engine also inherits its ancestors', so the replay extends
  * more often than the engine links.
  */
final class Replay(g: BipartiteGraph, k: Int, cfg: TraversalConfig, delivered: collection.Set[Solution], tr: Tracer) {
  private val (thetaL, thetaR) = cfg.theta.getOrElse((0, 0))
  var nodes = 0
  var easCalls = 0L
  var locals = 0L
  var rskCalls = 0L
  var rskRejects = 0L
  var excludedBefore = 0L
  var extensions = 0L
  var excludedAfter = 0L
  var visitedHits = 0L

  private def seeds(l: Array[Int], r: Array[Int]): Array[Int] =
    if (cfg.twoHopSeeds && r.length < g.nR) {
      val mark = new Array[Boolean](g.nL)
      r.foreach(u => g.adjR(u).foreach(v => mark(v) = true))
      (0 until g.nL).filter(v => mark(v) && !VertexSets.contains(l, v)).toArray
    } else (0 until g.nL).filter(v => !VertexSets.contains(l, v)).toArray

  /** Replay the expansion of node (l, r); stop once `maxCalls` EAS calls
    * have been made in total or `deadline` (System.nanoTime) has passed.
    */
  def node(l: Array[Int], r: Array[Int], maxCalls: Long, deadline: Long): Unit = {
    nodes += 1
    if (r.length < thetaR || g.nL < thetaL) return // solution pruning
    tr.run += 1
    tr.span("node") {
      val ctx = tr.span("ctx")(EnumAlmostSat.buildCtx(g, l, r))
      var x = VertexSets.empty
      val it = seeds(l, r).iterator
      while (it.hasNext && easCalls < maxCalls && System.nanoTime < deadline) {
        val v = it.next()
        val skip = cfg.theta.isDefined && VertexSets.intersectCount(g.adjL(v), r) + k < thetaR
        if (!skip) {
          easCalls += 1
          val xs = x
          tr.span("eas") {
            EnumAlmostSat.run(g, k, l, r, v, cfg.eas, emit = (lf, rp) => tr.span("emit") {
              locals += 1
              rskCalls += 1
              if (tr.span("rsk")(Biplex.existsAddableRight(g, k, lf, rp))) rskRejects += 1
              else if (VertexSets.intersectCount(lf, xs) > 0) excludedBefore += 1
              else {
                val defer = if (xs.nonEmpty) Some((w: Int) => VertexSets.contains(xs, w)) else None
                val ext = tr.span("extend")(Biplex.extend(g, k, lf, rp, leftOnly = true, deferLeft = defer))
                extensions += 1
                if (VertexSets.intersectCount(ext.left, xs) > 0) excludedAfter += 1
                else if (delivered.contains(ext)) visitedHits += 1
              }
              true
            }, minRight = thetaR, ctx = ctx)
          }
        }
        x = VertexSets.add(x, v)
      }
    }
  }
}

object Replay {

  /** The graph the engine enumerates on and the delivered solutions in its
    * ids: the (θ−k)-core subgraph for large mode (LargeMbp reduces first),
    * the input graph otherwise. Also returns the core-reduction time (s) and
    * kept vertex share, which are 0 and 1 without a core reduction.
    */
  def engineView(w: Workload, g: BipartiteGraph, sols: Seq[Solution], tr: Tracer)
      : (BipartiteGraph, TraversalConfig, Seq[Solution], Double, Double) = w.mode match {
    case Large(theta, _, _) =>
      val t0 = System.nanoTime
      val (cl, cr) = tr.span("core")(CoreReduction.alphaBetaCore(g, theta - w.k, theta - w.k))
      val reduceS = (System.nanoTime - t0) / 1e9
      val (sub, _, _) = g.inducedSubgraph(cl, cr)
      def back(ids: Array[Int], keep: Array[Int]) = ids.map(java.util.Arrays.binarySearch(keep, _))
      val mapped = sols.map(s => Solution(back(s.left, cl), back(s.right, cr)))
      val cfg = TraversalConfig.iTraversal.copy(theta = Some((theta, theta)), twoHopSeeds = theta > w.k)
      (sub, cfg, mapped, reduceS, (cl.length + cr.length).toDouble / (g.nL + g.nR))
    case Full(_, _) => (g, TraversalConfig.iTraversal, sols, 0.0, 1.0)
  }

  /** Replay a seeded sample of `sols`, bounded by node count, EAS calls and
    * wall time.
    */
  def sample(w: Workload, g: BipartiteGraph, cfg: TraversalConfig, sols: Seq[Solution], seed: Long,
      maxNodes: Int, maxCalls: Long, maxSeconds: Double, tr: Tracer): Replay = {
    val rp = new Replay(g, w.k, cfg, mutable.HashSet.from(sols), tr)
    val order = new scala.util.Random(seed).shuffle(sols.indices.toVector).take(maxNodes)
    val deadline = System.nanoTime + (maxSeconds * 1e9).toLong
    val it = order.iterator
    while (it.hasNext && rp.easCalls < maxCalls && System.nanoTime < deadline) {
      val s = sols(it.next())
      rp.node(s.left, s.right, maxCalls, deadline)
    }
    rp
  }
}
