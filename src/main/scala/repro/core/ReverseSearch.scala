package repro.core

import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** Statistics of one enumeration run.
  *
  * `links` counts the links of the (variant-specific) solution graph that
  * the DFS traversed: one per (H, v, H_loc) triple surviving the variant's
  * prunings — the quantity plotted in Figure 11. `easCalls` counts
  * EnumAlmostSat invocations (almost-satisfying graphs formed).
  */
final case class EnumStats(
    solutions: Long,
    links: Long,
    easCalls: Long,
    aborted: Boolean,
    millis: Long,
)

/** The four traversals compared in Figure 11, in order: each adds one
  * sparsification technique to the one before.
  */
sealed abstract class Traversal(private val rank: Int) extends Ordered[Traversal] {
  def compare(that: Traversal): Int = rank - that.rank
}

object Traversal {
  /** bTraversal (Algorithm 1): an arbitrary initial solution, seeds on
    * both sides, full extension.
    */
  case object Basic extends Traversal(0)

  /** iTraversal−ES−RS: left-anchored traversal (Section 3.3) — start from
    * H0 = (L0, R_all) and seed almost-satisfying graphs with left vertices
    * only.
    */
  case object LeftAnchored extends Traversal(1)

  /** iTraversal−ES: adds right-shrinking traversal (Section 3.4) — discard
    * local solutions that still admit a right vertex and extend with left
    * vertices only.
    */
  case object RightShrinking extends Traversal(2)

  /** iTraversal: adds the exclusion strategy (Section 3.5) — prune links
    * toward solutions containing a vertex of the exclusion set, which a
    * node inherits from its parent and grows by each seed it processes.
    */
  case object Exclusion extends Traversal(3)
}

/** Configuration of the reverse-search engine.
  *
  * @param traversal     which of the four Figure-11 traversals to run
  * @param eas           EnumAlmostSat implementation (Section 4)
  * @param theta         large-MBP mode (θL, θR): report only solutions with
  *                      |L| >= θL and |R| >= θR and apply the Section-5
  *                      prunings (requires right-shrinking traversal)
  * @param twoHopSeeds   restrict almost-satisfying-graph seeds at a node
  *                      (L, R) to left vertices with Γ(v) ∩ R ≠ ∅. Lossless
  *                      for every MBP whose right side exceeds k: any left
  *                      vertex v of such an MBP has Γ(v) ∩ R'' ≠ ∅
  *                      (δ̄(v,R'') ≤ k < |R''|), so the canonical
  *                      left-anchored path (Section 3.3) only ever seeds
  *                      with such vertices. Solutions with |R| ≤ k may be
  *                      skipped — this is the scalability mode used by the
  *                      large-graph benchmarks, mirroring how the paper's
  *                      implementation reaches billion-edge graphs.
  */
final case class TraversalConfig(
    traversal: Traversal,
    eas: EnumAlmostSat.Variant = EnumAlmostSat.L20R20,
    theta: Option[(Int, Int)] = None,
    twoHopSeeds: Boolean = false,
) {
  require(theta.isEmpty || traversal >= Traversal.RightShrinking,
    "size-constrained mode requires right-shrinking traversal")
}

object TraversalConfig {
  /** Algorithm 1 with the inflation-based EnumAlmostSat (paper's bTraversal). */
  val bTraversal: TraversalConfig = TraversalConfig(Traversal.Basic, eas = EnumAlmostSat.Inflated)

  /** Algorithm 2, all three techniques (paper's iTraversal). */
  val iTraversal: TraversalConfig = TraversalConfig(Traversal.Exclusion)

  /** iTraversal without the exclusion strategy. */
  val iTraversalNoES: TraversalConfig = iTraversal.copy(traversal = Traversal.RightShrinking)

  /** iTraversal without exclusion and right-shrinking (left-anchored only). */
  val iTraversalNoESNoRS: TraversalConfig = iTraversal.copy(traversal = Traversal.LeftAnchored)
}

/** Reverse-search enumeration of maximal k-biplexes: a DFS over the implicit
  * solution graph, run as one of the four traversals of Figure 11
  * (bTraversal = no sparsification technique, iTraversal = all three).
  */
object ReverseSearch {

  /** Enumerate maximal k-biplexes of g.
    *
    * `sink` receives each solution exactly once (pre-order); returning
    * false aborts the run ("first N MBPs"). `deadlineNanos` (absolute,
    * System.nanoTime scale) aborts long runs — the paper's INF budget.
    *
    * `rootSeed` >= 0 restricts the run to one root subtree of a
    * left-anchored traversal, as the distributed runner ships them: H0 is
    * not reported, and the root expands only that left seed. The earlier
    * root seeds still join the exclusion set, exactly as in the sequential
    * run; the later ones are not visited.
    *
    * The DFS runs in a dedicated 512 MB-stack thread because solution
    * graphs can be deep.
    */
  def run(
      g: BipartiteGraph,
      k: Int,
      cfg: TraversalConfig,
      sink: Solution => Boolean,
      deadlineNanos: Long = Long.MaxValue,
      rootSeed: Int = -1,
  ): EnumStats = BigStack.run {
    val t0 = System.nanoTime
    var solutions = 0L
    var links = 0L
    var easCalls = 0L
    var deadlineHit = false
    val (thetaL, thetaR) = cfg.theta.getOrElse((0, 0))
    val leftAnchored = cfg.traversal >= Traversal.LeftAnchored
    val rightShrinking = cfg.traversal >= Traversal.RightShrinking
    val exclusion = cfg.traversal >= Traversal.Exclusion
    val visited = new mutable.HashSet[Vector[Int]]

    def timeUp(): Boolean = {
      val up = System.nanoTime >= deadlineNanos
      if (up) deadlineHit = true
      up
    }

    /** Report a newly found solution; false aborts the whole run. */
    def report(s: Solution): Boolean = {
      if (s.left.length < thetaL || s.right.length < thetaR) true
      else { solutions += 1; sink(s) }
    }

    /** The (i)ThreeStep procedure from solution (l, r) with exclusion set x.
      * `onlySeed` >= 0 expands that left seed alone (see `rootSeed`).
      */
    def expand(l: Array[Int], r: Array[Int], x: Array[Int], onlySeed: Int = -1): Boolean = {
      if (r.length < thetaR) return true // solution pruning
      if (exclusion && g.nL - x.length < thetaL) return true // left-side pruning
      var xCur = x
      var ok = true
      // Disconnection structures of (l, r), shared by every seed's
      // EnumAlmostSat call (one ThreeStep = one solution).
      lazy val ctx = EnumAlmostSat.buildCtx(g, l, r)

      /** Follow the link to the extension `ext` of a local solution. */
      def follow(ext: Solution): Boolean = {
        links += 1
        if (exclusion && intersects(ext.left, xCur)) return true
        val key = ext.key(g.nL)
        if (!visited.contains(key)) {
          visited += key
          if (!report(ext)) return false
          if (!expand(ext.left, ext.right, xCur)) return false
        }
        true
      }

      /** A local solution (lFull = L' ∪ {v}, rPrime) of left seed v. */
      def handleLocal(v: Int, lFull: Array[Int], rPrime: Array[Int]): Boolean = {
        if (timeUp()) return false
        // Right-shrinking traversal (Algorithm 2 line 7): drop local
        // solutions that still admit a vertex from the right universe.
        if (rightShrinking && admitsRightVertex(g, k, ctx, v, lFull, rPrime)) return true
        if (exclusion && intersects(lFull, xCur)) return true
        follow(Biplex.extend(
          g, k, lFull, rPrime,
          leftOnly = rightShrinking,
          deferLeft = if (exclusion && xCur.nonEmpty) Some(xv => VertexSets.contains(xCur, xv)) else None,
        ))
      }

      // Left-side seeds (all traversals). In two-hop mode only vertices
      // neighbouring R are seeded (see TraversalConfig.twoHopSeeds).
      val leftSeeds: Iterator[Int] =
        if (cfg.twoHopSeeds && r.length < g.nR) {
          val lists = new Array[Array[Int]](r.length)
          var i = 0
          while (i < r.length) { lists(i) = g.adjR(r(i)); i += 1 }
          Biplex.atLeastCount(lists, 1).iterator.filter(v => !VertexSets.contains(l, v))
        } else {
          (0 until g.nL).iterator.filter(v => !VertexSets.contains(l, v))
        }
      while (ok && leftSeeds.hasNext) {
        val v = leftSeeds.next()
        if (onlySeed >= 0 && v > onlySeed) return true
        if (timeUp()) { ok = false }
        else {
          // Seeds before `onlySeed` only join the exclusion set; then
          // almost-satisfying-graph pruning (Section 5).
          val skip = v < onlySeed ||
            cfg.theta.isDefined && VertexSets.intersectCount(g.adjL(v), r) + k < thetaR
          if (!skip) {
            easCalls += 1
            ok = EnumAlmostSat.run(
              g, k, l, r, v, cfg.eas,
              emit = (lf, rp) => handleLocal(v, lf, rp),
              minRight = thetaR,
              deadlineNanos = deadlineNanos,
              ctx = if (cfg.eas == EnumAlmostSat.Inflated) null else ctx,
            )
          }
          if (ok && exclusion) xCur = VertexSets.add(xCur, v)
        }
      }
      // Right-side seeds (bTraversal only; pruned by left-anchored traversal).
      if (ok && !leftAnchored && onlySeed < 0) {
        val fg = g.flipped
        val rightSeeds = (0 until g.nR).iterator.filter(u => !VertexSets.contains(r, u))
        while (ok && rightSeeds.hasNext) {
          val u = rightSeeds.next()
          if (timeUp()) { ok = false }
          else {
            easCalls += 1
            ok = EnumAlmostSat.run(
              fg, k, r, l, u, cfg.eas,
              emit = (rf, lp) => !timeUp() && follow(Biplex.extend(fg, k, rf, lp, leftOnly = false).flip),
              deadlineNanos = deadlineNanos,
            )
          }
        }
      }
      ok
    }

    val h0 =
      if (leftAnchored) Biplex.initialLeftAnchored(g, k)
      else Biplex.initialArbitrary(g, k)
    visited += h0.key(g.nL)
    if (rootSeed >= 0) expand(h0.left, h0.right, VertexSets.empty, rootSeed)
    else if (report(h0)) expand(h0.left, h0.right, VertexSets.empty)
    // A deadline that fired inside EnumAlmostSat short-circuits without
    // passing through timeUp(); catch it here.
    if (System.nanoTime >= deadlineNanos) deadlineHit = true
    EnumStats(solutions, links, easCalls, deadlineHit, (System.nanoTime - t0) / 1000000)
  }

  /** Convenience: collect all solutions (tests / small graphs only). */
  def collectAll(g: BipartiteGraph, k: Int, cfg: TraversalConfig): (Set[Solution], EnumStats) = {
    val out = mutable.HashSet.empty[Solution]
    val stats = run(g, k, cfg, s => { out += s; true })
    (out.toSet, stats)
  }

  /** Convenience: collect the first n solutions. */
  def collectFirst(
      g: BipartiteGraph,
      k: Int,
      cfg: TraversalConfig,
      n: Int,
      deadlineNanos: Long = Long.MaxValue,
  ): (Vector[Solution], EnumStats) = {
    val out = Vector.newBuilder[Solution]
    var c = 0
    val stats = run(g, k, cfg, s => { out += s; c += 1; c < n }, deadlineNanos)
    (out.result(), stats)
  }

  private def intersects(a: Array[Int], b: Array[Int]): Boolean =
    VertexSets.intersectCount(a, b) > 0

  /** Right-shrinking test (Algorithm 2 line 7) for a local solution
    * (lFull = L' ∪ {v}, rPrime) of the node whose context is `ctx`:
    * does some u ∈ R_universe \ rPrime extend it to a k-biplex?
    *
    * Vertices of R \ R' are never addable (the local solution is locally
    * maximal), so only the saturation structure matters: an addable u must
    * connect every saturated member of lFull and have δ̄(u, lFull) ≤ k.
    * Saturation is read from ctx's ≤k-sized non-neighbour lists instead of
    * recomputed, which keeps this O(|L'|·k·log + Σdeg·log).
    */
  private def admitsRightVertex(
      g: BipartiteGraph,
      k: Int,
      ctx: EnumAlmostSat.SolutionCtx,
      v: Int,
      lFull: Array[Int],
      rPrime: Array[Int],
  ): Boolean = {
    if (rPrime.length == g.nR) return false
    // Saturated members of lFull: δ̄(w, R') == k.
    var sat = VertexSets.empty
    var i = 0
    while (i < lFull.length) {
      val w = lFull(i)
      val d =
        if (w == v) rPrime.length - VertexSets.intersectCount(g.adjL(v), rPrime)
        else {
          val nb = ctx.nbarL(ctx.posL(w))
          var c = 0
          var j = 0
          while (j < nb.length) {
            if (VertexSets.contains(rPrime, nb(j))) c += 1
            j += 1
          }
          c
        }
      if (d == k) sat = VertexSets.add(sat, w)
      i += 1
    }
    if (sat.nonEmpty) {
      // Candidates must be common neighbours of sat: scan the smallest list.
      var w0 = sat(0)
      var s = 1
      while (s < sat.length) { if (g.degL(sat(s)) < g.degL(w0)) w0 = sat(s); s += 1 }
      g.adjL(w0).exists { u =>
        !VertexSets.contains(rPrime, u) &&
        sat.forall(w => g.hasEdge(w, u)) &&
        lFull.length - VertexSets.intersectCount(g.adjR(u), lFull) <= k
      }
    } else if (lFull.length > k) {
      val lists = new Array[Array[Int]](lFull.length)
      i = 0
      while (i < lFull.length) { lists(i) = g.adjL(lFull(i)); i += 1 }
      Biplex.atLeastCount(lists, lFull.length - k).exists(u => !VertexSets.contains(rPrime, u))
    } else true
  }
}

/** Runs a thunk in a dedicated thread with a large stack — solution-graph
  * DFS recursion can be as deep as the number of solutions.
  */
object BigStack {
  def run[A](body: => A): A = {
    var out: Either[Throwable, A] = null
    val t = new Thread(null, () => {
      out = try Right(body) catch { case e: Throwable => Left(e) }
    }, "repro-bigstack", 512L * 1024 * 1024)
    t.start()
    t.join()
    out match {
      case Right(a) => a
      case Left(e)  => throw e
    }
  }
}
