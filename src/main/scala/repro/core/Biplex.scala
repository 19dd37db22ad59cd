package repro.core

import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** k-biplex predicates and deterministic maximal extension.
  *
  * Notation follows the paper: for a left vertex v and right set R,
  * `dbar(v,R)` is the number of vertices of R that v *disconnects*
  * (Definition 2.1 bounds it by k on both sides).
  *
  * The recompute-style predicates here are the reference semantics used by
  * tests and by the traversal engines on the (small) solution-sized sets;
  * enumerator inner loops use candidate generation to avoid scanning the
  * whole vertex universe on large graphs.
  */
object Biplex {

  /** δ̄(v, R) for left vertex v. */
  def dbarL(g: BipartiteGraph, v: Int, r: Array[Int]): Int =
    r.length - VertexSets.intersectCount(g.adjL(v), r)

  /** δ̄(u, L) for right vertex u. */
  def dbarR(g: BipartiteGraph, u: Int, l: Array[Int]): Int =
    l.length - VertexSets.intersectCount(g.adjR(u), l)

  /** Definition 2.1: every vertex disconnects at most k on the other side. */
  def isKBiplex(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean =
    l.forall(v => dbarL(g, v, r) <= k) && r.forall(u => dbarR(g, u, l) <= k)

  /** Can left vertex v (∉ L) be added to the k-biplex (L, R)? */
  def addableL(g: BipartiteGraph, k: Int, v: Int, l: Array[Int], r: Array[Int]): Boolean = {
    if (dbarL(g, v, r) > k) return false
    // Every right vertex that disconnects v gains one disconnection.
    var i = 0
    val nb = g.adjL(v)
    while (i < r.length) {
      val u = r(i)
      if (!VertexSets.contains(nb, u) && dbarR(g, u, l) >= k) return false
      i += 1
    }
    true
  }

  /** Can right vertex u (∉ R) be added to the k-biplex (L, R)? */
  def addableR(g: BipartiteGraph, k: Int, u: Int, l: Array[Int], r: Array[Int]): Boolean =
    addableL(g.flipped, k, u, r, l)

  /** Left vertices of L with δ̄(v,R) exactly k (no slack left). */
  def saturatedL(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Array[Int] =
    l.filter(v => dbarL(g, v, r) == k)

  /** Sorted ids that occur in at least `need` of the given sorted adjacency
    * lists (concat + sort + run-length scan; no boxing). `need` ≥ 1.
    */
  private[core] def atLeastCount(lists: Array[Array[Int]], need: Int): Array[Int] = {
    var total = 0
    var i = 0
    while (i < lists.length) { total += lists(i).length; i += 1 }
    val buf = new Array[Int](total)
    var p = 0
    i = 0
    while (i < lists.length) {
      System.arraycopy(lists(i), 0, buf, p, lists(i).length); p += lists(i).length; i += 1
    }
    java.util.Arrays.sort(buf)
    val out = new mutable.ArrayBuffer[Int]
    i = 0
    while (i < buf.length) {
      var j = i + 1
      while (j < buf.length && buf(j) == buf(i)) j += 1
      if (j - i >= need) out += buf(i)
      i = j
    }
    out.toArray
  }

  /** Candidate left vertices that could satisfy δ̄(v,R) ≤ k, ascending.
    *
    * A superset of the truly addable vertices outside L; callers re-check
    * with [[addableL]]. When |R| > k an addable vertex needs at least
    * |R| − k right neighbours in R, so it is found by counting neighbours
    * of R; when |R| ≤ k (or R is the full side) every outside vertex
    * qualifies degree-wise and the universe is scanned.
    */
  def leftCandidates(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Array[Int] = {
    if (r.length <= k || r.length == g.nR) {
      return (0 until g.nL).iterator.filter(v => !VertexSets.contains(l, v)).toArray
    }
    val byRight = new Array[Array[Int]](r.length)
    var i = 0
    while (i < r.length) { byRight(i) = g.adjR(r(i)); i += 1 }
    VertexSets.diff(atLeastCount(byRight, r.length - k), l)
  }

  /** Does some right vertex outside R extend (L, R) to a larger k-biplex?
    *
    * Done without scanning the whole right universe: an addable u must
    * (a) connect every saturated left vertex and (b) have δ̄(u,L) ≤ k. The
    * traversal engine's right-shrinking test (Algorithm 2 line 7) is
    * `ReverseSearch.admitsRightVertex`, which reads saturation from the
    * node's EnumAlmostSat context instead.
    */
  def existsAddableRight(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean = {
    if (r.length == g.nR) return false
    val sat = saturatedL(g, k, l, r)
    if (sat.nonEmpty) {
      // u must be a common neighbour of every saturated left vertex.
      val lists = new Array[Array[Int]](sat.length)
      var i = 0
      while (i < sat.length) { lists(i) = g.adjL(sat(i)); i += 1 }
      atLeastCount(lists, sat.length).exists(u =>
        !VertexSets.contains(r, u) && dbarR(g, u, l) <= k)
    } else if (l.length > k) {
      // u needs at least |L| - k neighbours in L, so it neighbours L.
      val lists = new Array[Array[Int]](l.length)
      var i = 0
      while (i < l.length) { lists(i) = g.adjL(l(i)); i += 1 }
      atLeastCount(lists, l.length - k).exists(u =>
        !VertexSets.contains(r, u) && dbarR(g, u, l) <= k)
    } else {
      // |L| <= k and no saturated left vertex: any outside u is addable.
      true
    }
  }

  /** Is (L, R) maximal w.r.t. G (no vertex on either side addable)? */
  def isMaximal(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean = {
    if (existsAddableRight(g, k, l, r)) return false
    !existsAddableRight(g.flipped, k, r, l)
  }

  /** Is (L, R) a maximal k-biplex of G? */
  def isMaximalKBiplex(g: BipartiteGraph, k: Int, l: Array[Int], r: Array[Int]): Boolean =
    isKBiplex(g, k, l, r) && isMaximal(g, k, l, r)

  /** Deterministically extend the k-biplex (L, R) to a maximal one.
    *
    * Adds vertices in ascending id order — left side first, then (iff
    * `leftOnly` is false) the right side. Left vertices for which
    * `deferLeft` holds are tried only after all others (the exclusion
    * strategy prefers extensions that avoid excluded vertices). Because
    * addability is monotone non-increasing as the solution grows, one pass
    * per group yields a maximal result; `leftOnly` extensions preserve R
    * exactly (right-shrinking traversal, Algorithm 2 line 8).
    */
  def extend(
      g: BipartiteGraph,
      k: Int,
      l0: Array[Int],
      r0: Array[Int],
      leftOnly: Boolean,
      deferLeft: Option[Int => Boolean] = None,
  ): Solution = {
    val l = deferLeft match {
      case None    => extendLeftPass(g, k, l0, r0, _ => true)
      case Some(d) => extendLeftPass(g, k, extendLeftPass(g, k, l0, r0, v => !d(v)), r0, d)
    }
    val r = if (leftOnly) r0 else extendLeftPass(g.flipped, k, r0, l, _ => true)
    Solution(l, r)
  }

  /** One maximal-growing pass over left candidates satisfying `pred`, with
    * incremental bookkeeping: δ̄(u, L) per u ∈ R and the saturated set are
    * updated on each accepted vertex instead of recomputed per candidate.
    * Addability is monotone non-increasing, so a single ascending pass over
    * a candidate superset yields a left-maximal result.
    */
  private def extendLeftPass(
      g: BipartiteGraph,
      k: Int,
      l0: Array[Int],
      r: Array[Int],
      pred: Int => Boolean,
  ): Array[Int] = {
    val fullRight = r.length == g.nR
    val dbar = new Array[Int](r.length)
    var satR = VertexSets.empty // right vertices with δ̄(u, L) == k, sorted
    var i = 0
    while (i < r.length) {
      dbar(i) = dbarR(g, r(i), l0)
      if (dbar(i) == k) satR = VertexSets.add(satR, r(i))
      i += 1
    }
    // Accepted vertices are buffered and merged into l0 once at the end —
    // re-allocating the set per add would be quadratic when a pass accepts
    // a large fraction of the universe (e.g. extending toward (L, ∅)).
    // Every branch below offers candidates in strictly ascending order, so
    // the buffer stays sorted and never holds a candidate offered again.
    val added = new mutable.ArrayBuffer[Int]

    /** Check v and, if addable, add it and update the bookkeeping. */
    def tryAdd(v: Int): Boolean = {
      if (!pred(v) || VertexSets.contains(l0, v)) return false
      val nb = g.adjL(v)
      val db = if (fullRight) g.nR - nb.length else r.length - VertexSets.intersectCount(nb, r)
      if (db > k) return false
      var s = 0
      while (s < satR.length) {
        if (!VertexSets.contains(nb, satR(s))) return false
        s += 1
      }
      added += v
      var j = 0
      while (j < r.length) {
        if (!VertexSets.contains(nb, r(j))) {
          dbar(j) += 1
          if (dbar(j) == k) satR = VertexSets.add(satR, r(j))
        }
        j += 1
      }
      true
    }

    if (r.length > k && !fullRight) {
      val cands = leftCandidates(g, k, l0, r)
      var c = 0
      while (c < cands.length) { tryAdd(cands(c)); c += 1 }
    } else if (r.length > k) {
      // R is the full right side (H0 construction): degree prefilter only.
      var v = 0
      val need = g.nR - k
      while (v < g.nL) {
        if (g.adjL(v).length >= need) tryAdd(v)
        v += 1
      }
    } else {
      // |R| <= k: every vertex passes the degree test. Phase A adds
      // greedily while nothing is saturated; once some u saturates, only
      // common neighbours of the saturated set remain addable (Phase B),
      // which avoids scanning the whole left universe.
      var v = 0
      while (v < g.nL && satR.isEmpty) { tryAdd(v); v += 1 }
      if (v < g.nL && satR.nonEmpty) {
        var common: Array[Int] = null
        def recompute(): Unit = {
          common = g.adjR(satR(0))
          var s = 1
          while (s < satR.length) { common = VertexSets.intersect(common, g.adjR(satR(s))); s += 1 }
        }
        recompute()
        var continueB = true
        while (continueB) {
          val p = java.util.Arrays.binarySearch(common, v)
          val idx = if (p >= 0) p else -p - 1
          if (idx >= common.length) continueB = false
          else {
            val cand = common(idx)
            val satBefore = satR.length
            tryAdd(cand)
            v = cand + 1
            if (satR.length != satBefore) recompute()
          }
        }
      }
    }
    if (added.isEmpty) l0 else VertexSets.union(l0, added.toArray)
  }

  /** The paper's initial solution H0 = (L0, R_all): greedily grow L0 from ∅. */
  def initialLeftAnchored(g: BipartiteGraph, k: Int): Solution = {
    val all = Array.range(0, g.nR)
    extend(g, k, VertexSets.empty, all, leftOnly = true)
  }

  /** An arbitrary initial solution for bTraversal: greedy from (∅, ∅) over
    * an interleaved vertex order (l0, r0, l1, r1, …). Interleaving keeps
    * the initial solution of normal size — a left-only first pass would
    * absorb the whole left side (every L-subset with R = ∅ is a k-biplex).
    * Addability is monotone non-increasing, so one pass is maximal.
    */
  def initialArbitrary(g: BipartiteGraph, k: Int): Solution = {
    var l = VertexSets.empty
    var r = VertexSets.empty
    var i = 0
    val n = math.max(g.nL, g.nR)
    while (i < n) {
      if (i < g.nL && addableL(g, k, i, l, r)) l = VertexSets.add(l, i)
      if (i < g.nR && addableR(g, k, i, l, r)) r = VertexSets.add(r, i)
      i += 1
    }
    Solution(l, r)
  }
}
