package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.gen.BipartiteGen
import repro.graph.{BipartiteGraph, VertexSets}
import scala.collection.mutable

/** The four traversals of Figure 11 against brute force — the central
  * correctness test of the reproduction. The exclusion
  * strategy's correctness for iTraversal (whose proof lives in the paper's
  * unavailable technical report) is established here empirically over
  * hundreds of randomized graphs.
  */
class TraversalSpec extends SparkSpec {

  private val configs: Seq[(String, Int => TraversalConfig)] = Seq(
    "bTraversal(Inflated)" -> (_ => TraversalConfig.bTraversal),
    "bTraversal(L20R20)"   -> (_ => TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20)),
    "iTraversal-ES-RS"     -> (_ => TraversalConfig.iTraversalNoESNoRS),
    "iTraversal-ES"        -> (_ => TraversalConfig.iTraversalNoES),
    "iTraversal"           -> (_ => TraversalConfig.iTraversal),
    "iTraversal(L10R10)"   -> (_ => TraversalConfig.iTraversal.copy(eas = EnumAlmostSat.L10R10)),
    "iTraversal(Inflated)" -> (_ => TraversalConfig.iTraversal.copy(eas = EnumAlmostSat.Inflated)),
  )

  for ((name, mkCfg) <- configs; k <- 1 to 3) {
    test(s"$name equals brute force (k=$k)") {
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 5, seed = 4000 + k)) {
        val exp = BruteForce.maximalKBiplexes(g, k)
        val (got, _) = ReverseSearch.collectAll(g, k, mkCfg(k))
        assert(got == exp,
          s"seed $seed k=$k nL=${g.nL} nR=${g.nR}:\n missing ${(exp -- got).take(5)}\n extra ${(got -- exp).take(5)}")
      }
    }
  }

  test("iTraversal handles k=0 (maximal biclique enumeration)") {
    for ((g, seed) <- TestGraphs.smallBatch(30, maxSide = 5, seed = 4100)) {
      val exp = BruteForce.maximalKBiplexes(g, 0)
      val (got, _) = ReverseSearch.collectAll(g, 0, TraversalConfig.iTraversal)
      assert(got == exp, s"seed $seed")
    }
  }

  test("denser random graphs (k=1,2)") {
    for (k <- 1 to 2; (g, seed) <- TestGraphs.smallBatch(15, maxSide = 7, seed = 4200 + k)) {
      val exp = BruteForce.maximalKBiplexes(g, k)
      val (got, _) = ReverseSearch.collectAll(g, k, TraversalConfig.iTraversal)
      assert(got == exp, s"seed $seed k=$k")
    }
  }

  test("asymmetric graphs: wide and tall") {
    for (k <- 1 to 2) {
      val wide = TestGraphs.random(2, 9, 0.4, 4321)
      val tall = TestGraphs.random(9, 2, 0.4, 4322)
      for (g <- Seq(wide, tall)) {
        assert(ReverseSearch.collectAll(g, k, TraversalConfig.iTraversal)._1 ==
          BruteForce.maximalKBiplexes(g, k))
        assert(ReverseSearch.collectAll(g, k, TraversalConfig.bTraversal)._1 ==
          BruteForce.maximalKBiplexes(g, k))
      }
    }
  }

  test("degenerate graphs: empty, complete, single vertex sides") {
    for (k <- 1 to 2) {
      for (g <- Seq(TestGraphs.empty(3, 3), TestGraphs.complete(3, 3),
                    TestGraphs.empty(1, 4), TestGraphs.complete(4, 1),
                    BipartiteGraph.fromEdges(1, 1, Seq((0, 0))))) {
        val exp = BruteForce.maximalKBiplexes(g, k)
        assert(ReverseSearch.collectAll(g, k, TraversalConfig.iTraversal)._1 == exp, s"k=$k $g")
        assert(ReverseSearch.collectAll(g, k, TraversalConfig.bTraversal)._1 == exp, s"k=$k $g")
      }
    }
  }

  test("link counts shrink monotonically across the technique stack") {
    var checked = 0
    for ((g, seed) <- TestGraphs.smallBatch(25, maxSide = 5, seed = 4300)) {
      val b = ReverseSearch.collectAll(g, 1, TraversalConfig.bTraversal.copy(eas = EnumAlmostSat.L20R20))._2
      val la = ReverseSearch.collectAll(g, 1, TraversalConfig.iTraversalNoESNoRS)._2
      val rs = ReverseSearch.collectAll(g, 1, TraversalConfig.iTraversalNoES)._2
      val full = ReverseSearch.collectAll(g, 1, TraversalConfig.iTraversal)._2
      assert(la.links <= b.links, s"seed $seed: left-anchored should not add links")
      assert(rs.links <= la.links, s"seed $seed: right-shrinking should not add links")
      assert(full.links <= rs.links, s"seed $seed: exclusion should not add links")
      if (b.links > full.links) checked += 1
    }
    assert(checked > 0, "sparsification never fired on the batch")
  }

  test("golden (solutions, links, easCalls) of the four Figure-11 traversals") {
    val presets = Seq(TraversalConfig.bTraversal, TraversalConfig.iTraversalNoESNoRS,
      TraversalConfig.iTraversalNoES, TraversalConfig.iTraversal)
    // Per graph and k: one (solutions, links, easCalls) per preset above.
    val golden = Seq(
      (TestGraphs.random(8, 8, 0.45, 909), 1,
        Seq((143, 3706, 1449), (143, 1777, 703), (143, 981, 703), (143, 444, 703))),
      (TestGraphs.random(10, 9, 0.35, 4711), 1,
        Seq((250, 8854, 3168), (250, 4643, 1678), (250, 2449, 1678), (250, 1469, 1678))),
      (BipartiteGen.er(12, 12, 50, seed = 3), 1,
        Seq((566, 28540, 10172), (566, 14547, 5052), (566, 7567, 5052), (566, 4243, 5052))),
      (TestGraphs.random(7, 7, 0.45, 77), 2,
        Seq((226, 8006, 1604), (226, 3934, 797), (226, 1532, 797), (226, 845, 797))),
    )
    for ((g, k, expected) <- golden; (cfg, (sols, links, eas)) <- presets.zip(expected)) {
      val st = ReverseSearch.collectAll(g, k, cfg)._2
      assert((st.solutions, st.links, st.easCalls) == ((sols.toLong, links.toLong, eas.toLong)),
        s"${cfg.traversal} on $g, k=$k")
    }
  }

  private val rootSplitConfigs = Seq(
    (1, TraversalConfig.iTraversal),
    (2, TraversalConfig.iTraversal),
    (1, TraversalConfig.iTraversal.copy(theta = Some((2, 2)), twoHopSeeds = true)),
  )

  for ((k, cfg) <- rootSplitConfigs) {
    test(s"H0 plus the per-root-seed runs equal the whole run (k=$k, theta=${cfg.theta})") {
      val (thetaL, thetaR) = cfg.theta.getOrElse((0, 0))
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 4600 + k)) {
        val h0 = Biplex.initialLeftAnchored(g, k)
        val split = mutable.HashSet.empty[Solution]
        if (h0.left.length >= thetaL && h0.right.length >= thetaR) split += h0
        val rootSeeds = (0 until g.nL).filter(v => !VertexSets.contains(h0.left, v))
        for (v <- rootSeeds) {
          // The earlier root seeds form the task's initial exclusion set.
          val excluded = rootSeeds.filter(_ < v).toSet
          ReverseSearch.run(g, k, cfg, { s =>
            assert(!s.left.exists(excluded), s"seed $seed: root seed $v reported $s")
            split += s
            true
          }, rootSeed = v)
        }
        assert(split.toSet == ReverseSearch.collectAll(g, k, cfg)._1, s"seed $seed")
      }
    }
  }

  test("first-N early termination returns exactly N solutions and they are valid") {
    val g = TestGraphs.random(8, 8, 0.45, 909)
    val all = ReverseSearch.collectAll(g, 1, TraversalConfig.iTraversal)._1
    val n = math.min(3, all.size)
    val (first, _) = ReverseSearch.collectFirst(g, 1, TraversalConfig.iTraversal, n)
    assert(first.size == n)
    first.foreach(s => assert(Biplex.isMaximalKBiplex(g, 1, s.left, s.right)))
  }

  test("deadline abort sets the aborted flag") {
    val g = TestGraphs.random(10, 10, 0.4, 910)
    val stats = ReverseSearch.run(g, 2, TraversalConfig.iTraversal, _ => true,
      deadlineNanos = System.nanoTime) // already expired
    assert(stats.aborted)
  }

  for (k <- 1 to 2) {
    test(s"twoHopSeeds mode: valid MBPs only, covers every MBP with |R| > k (k=$k)") {
      val cfg = TraversalConfig.iTraversal.copy(twoHopSeeds = true)
      for ((g, seed) <- TestGraphs.smallBatch(40, maxSide = 6, seed = 4500 + k)) {
        val (got, _) = ReverseSearch.collectAll(g, k, cfg)
        got.foreach(s => assert(Biplex.isMaximalKBiplex(g, k, s.left, s.right), s"seed $seed"))
        val mustHave = BruteForce.maximalKBiplexes(g, k).filter(_.right.length > k)
        assert(mustHave.subsetOf(got),
          s"seed $seed: missing ${(mustHave -- got).take(5)}")
      }
    }
  }

  test("solutions are emitted exactly once (no duplicates through sink)") {
    for ((g, seed) <- TestGraphs.smallBatch(15, maxSide = 5, seed = 4400)) {
      val seen = scala.collection.mutable.ArrayBuffer.empty[Solution]
      ReverseSearch.run(g, 1, TraversalConfig.iTraversal, s => { seen += s; true })
      assert(seen.size == seen.toSet.size, s"seed $seed: duplicates emitted")
    }
  }
}
