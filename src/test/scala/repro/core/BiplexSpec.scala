package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.VertexSets
import scala.util.Random

/** k-biplex predicates against definition-level reference implementations. */
class BiplexSpec extends SparkSpec {

  private def naiveAddableL(g: repro.graph.BipartiteGraph, k: Int, v: Int,
                            l: Array[Int], r: Array[Int]): Boolean =
    Biplex.isKBiplex(g, k, VertexSets.add(l, v), r)

  private def naiveAddableR(g: repro.graph.BipartiteGraph, k: Int, u: Int,
                            l: Array[Int], r: Array[Int]): Boolean =
    Biplex.isKBiplex(g, k, l, VertexSets.add(r, u))

  test("dbar counts disconnections") {
    val g = TestGraphs.complete(3, 3)
    assert(Biplex.dbarL(g, 0, Array(0, 1, 2)) == 0)
    val e = TestGraphs.empty(3, 3)
    assert(Biplex.dbarL(e, 0, Array(0, 1, 2)) == 3)
    assert(Biplex.dbarR(e, 1, Array(0, 1)) == 2)
  }

  /** A random k-biplex (L, R) of g, grown greedily from random orders. */
  private def randomBiplex(g: repro.graph.BipartiteGraph, k: Int, rnd: Random): (Array[Int], Array[Int]) = {
    var l = VertexSets.empty
    var r = VertexSets.empty
    rnd.shuffle((0 until g.nL).toList).foreach { v =>
      if (rnd.nextBoolean() && naiveAddableL(g, k, v, l, r)) l = VertexSets.add(l, v)
    }
    rnd.shuffle((0 until g.nR).toList).foreach { u =>
      if (rnd.nextBoolean() && naiveAddableR(g, k, u, l, r)) r = VertexSets.add(r, u)
    }
    (l, r)
  }

  for (k <- 0 to 3) {
    test(s"addableL/addableR match definition (k=$k)") {
      val rnd = new Random(500 + k)
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 600 + k)) {
        val (l, r) = randomBiplex(g, k, rnd)
        assert(Biplex.isKBiplex(g, k, l, r), s"seed $seed")
        for (v <- 0 until g.nL if !VertexSets.contains(l, v)) {
          assert(Biplex.addableL(g, k, v, l, r) == naiveAddableL(g, k, v, l, r), s"seed $seed v=$v")
        }
        for (u <- 0 until g.nR if !VertexSets.contains(r, u)) {
          assert(Biplex.addableR(g, k, u, l, r) == naiveAddableR(g, k, u, l, r), s"seed $seed u=$u")
        }
        // existsAddableRight agrees with a naive scan
        val naiveExists = (0 until g.nR).exists(u =>
          !VertexSets.contains(r, u) && naiveAddableR(g, k, u, l, r))
        assert(Biplex.existsAddableRight(g, k, l, r) == naiveExists, s"seed $seed")
      }
    }
  }

  for (k <- 0 to 2) {
    test(s"extend produces maximal k-biplexes (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 700 + k)) {
        val s = Biplex.extend(g, k, VertexSets.empty, VertexSets.empty, leftOnly = false)
        assert(Biplex.isKBiplex(g, k, s.left, s.right), s"seed $seed")
        assert(Biplex.isMaximal(g, k, s.left, s.right), s"seed $seed: $s not maximal")
      }
    }

    test(s"extend leftOnly preserves the right side exactly (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(30, maxSide = 6, seed = 800 + k)) {
        val r0 = Array.range(0, g.nR)
        val s = Biplex.extend(g, k, VertexSets.empty, r0, leftOnly = true)
        assert(s.right.toSeq == r0.toSeq, s"seed $seed")
        // No left vertex outside is addable.
        for (v <- 0 until g.nL if !VertexSets.contains(s.left, v)) {
          assert(!Biplex.addableL(g, k, v, s.left, s.right), s"seed $seed v=$v")
        }
      }
    }
  }

  for (k <- 0 to 2) {
    test(s"extend with deferred left vertices is left-maximal and defers (k=$k)") {
      val rnd = new Random(850 + k)
      var withDeferred, withoutDeferred = 0
      for ((g, seed) <- TestGraphs.smallBatch(60, maxSide = 7, seed = 860 + k)) {
        val (l, r) = randomBiplex(g, k, rnd)
        val d = (0 until g.nL).filter(v => !VertexSets.contains(l, v) && rnd.nextBoolean()).toArray
        val s = Biplex.extend(g, k, l, r, leftOnly = true, deferLeft = Some(v => VertexSets.contains(d, v)))
        assert(s.right.toSeq == r.toSeq, s"seed $seed: R changed")
        assert(VertexSets.subsetOf(l, s.left) && Biplex.isKBiplex(g, k, s.left, s.right), s"seed $seed")
        for (v <- 0 until g.nL if !VertexSets.contains(s.left, v))
          assert(!Biplex.addableL(g, k, v, s.left, r), s"seed $seed: $v still addable")
        // A deferred vertex joins iff one is addable after the other vertices.
        val rest = VertexSets.diff(s.left, d)
        val joined = VertexSets.intersectCount(s.left, d) > 0
        assert(joined == d.exists(v => Biplex.addableL(g, k, v, rest, r)), s"seed $seed")
        if (joined) withDeferred += 1 else if (d.nonEmpty) withoutDeferred += 1
      }
      assert(withDeferred > 0 && withoutDeferred > 0, s"$withDeferred / $withoutDeferred")
    }
  }

  for (k <- 1 to 3) {
    test(s"initialLeftAnchored is a maximal k-biplex with full right side (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 900 + k)) {
        val h0 = Biplex.initialLeftAnchored(g, k)
        assert(h0.right.length == g.nR, s"seed $seed")
        assert(Biplex.isMaximalKBiplex(g, k, h0.left, h0.right), s"seed $seed")
      }
    }

    test(s"initialArbitrary is a maximal k-biplex (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 950 + k)) {
        val h0 = Biplex.initialArbitrary(g, k)
        assert(Biplex.isMaximalKBiplex(g, k, h0.left, h0.right), s"seed $seed")
      }
    }
  }

  test("leftCandidates is a superset of the addable left vertices") {
    for (k <- 0 to 2; (g, seed) <- TestGraphs.smallBatch(25, maxSide = 6, seed = 1000 + k)) {
      val h0 = Biplex.initialArbitrary(g, k)
      val cands = Biplex.leftCandidates(g, k, h0.left, h0.right).toSet
      for (v <- 0 until g.nL if !VertexSets.contains(h0.left, v)) {
        if (Biplex.isKBiplex(g, k, VertexSets.add(h0.left, v), h0.right))
          assert(cands.contains(v), s"seed $seed: candidate $v missing")
      }
    }
  }

  test("hereditary property: subgraphs of a k-biplex are k-biplexes") {
    val rnd = new Random(77)
    for (k <- 1 to 2; (g, seed) <- TestGraphs.smallBatch(20, maxSide = 5, seed = 1100 + k)) {
      val h = Biplex.initialArbitrary(g, k)
      val l2 = h.left.filter(_ => rnd.nextBoolean())
      val r2 = h.right.filter(_ => rnd.nextBoolean())
      assert(Biplex.isKBiplex(g, k, l2, r2), s"seed $seed")
    }
  }
}
