package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Coreset, Deadline, Gonzalez, LabeledPoint, MFD, Points, Sweep}

/** Contract tests shared by every baseline: fairness of the returned set,
  * membership in the input, no duplicates; plus per-algorithm guarantees
  * (approximation sanity vs brute force on tiny instances) and the
  * qualitative ordering the paper's §6 reports.
  */
class BaselinesSpec extends AnyFunSuite {

  private type Algo = (Array[LabeledPoint], Map[Int, Int]) => Array[LabeledPoint]

  private val algos: Seq[(String, Algo)] = Seq(
    "FairFlow" -> ((p, k) => FairFlow.select(p, k)),
    "FairGreedyFlow" -> ((p, k) => FairGreedyFlow.select(p, k)),
    "FMMD-S" -> ((p, k) => FMMDS.select(p, k)),
    "SFDM-2(.15)" -> ((p, k) => SFDM2.select(p, k, 0.15)),
    "SFDM-2(.75)" -> ((p, k) => SFDM2.select(p, k, 0.75)),
    "Random" -> ((p, k) => RandomSelect.select(p, k))
  )

  /** 20 points at one location: every k-subset has diversity 0. */
  private val oneLocation = Array.tabulate(20)(i => LabeledPoint(i, i % 2, Array(7.0, 7.0)))

  /** Color 0 at one spot, below its k_0 in distinct locations, beside spread color-1 points. */
  private val oneColorAtOneSpot =
    Array.tabulate(10)(i => LabeledPoint(i, 0, Array(5.0, 5.0))) ++
      TestUtil.randomPoints(30, 2, 1, 17L).map(p => LabeledPoint(10 + p.id, 1, p.x))

  private val fairInputs: Seq[(String, Array[LabeledPoint], Map[Int, Int])] =
    (1 to 5).map { seed =>
      val pts = TestUtil.clusteredPoints(200, 2, 3, 6, seed * 43L)
      val k = Points.colorCounts(pts.toSeq).map { case (c, n) => c -> math.min(4, n) }
      (s"seed=$seed", pts, k)
    } ++ Seq(
      ("at one location", oneLocation, Map(0 -> 3, 1 -> 3)),
      ("with a single color", TestUtil.randomPoints(60, 2, 1, 3L), Map(0 -> 5)),
      ("with one color at one spot", oneColorAtOneSpot, Map(0 -> 3, 1 -> 3))
    )

  for ((name, algo) <- algos; (label, pts, k) <- fairInputs) {
    test(s"$name returns a fair, duplicate-free subset $label") {
      val sel = algo(pts, k)
      assert(Points.missedPerColor(sel.toSeq, k).values.forall(_ == 0), s"$name unfair: ${Points.colorCounts(sel.toSeq)} vs $k")
      val ids = pts.map(_.id).toSet
      sel.foreach(p => assert(ids.contains(p.id)))
      assert(sel.map(_.id).distinct.length == sel.length)
    }
  }

  for ((name, algo) <- algos if name != "Random"; seed <- 1 to 3) {
    test(s"$name diversity is positive on spread data seed=$seed") {
      val pts = TestUtil.randomPoints(150, 2, 2, seed * 59L)
      val k = Map(0 -> 3, 1 -> 3)
      val sel = algo(pts, k)
      assert(Points.diversity(sel.toSeq) > 0)
    }
  }

  test("FMMD-S achieves at least the MFD diversity on small instances") {
    // The paper's headline quality ordering: FMMD-S (exact inner IP) is the
    // diversity ceiling. Allow 0.9 slack for the delta-grid granularity.
    var wins = 0
    for (seed <- 1 to 5) {
      val pts = TestUtil.clusteredPoints(300, 2, 2, 8, seed * 67L)
      val k = Map(0 -> 4, 1 -> 4)
      val fm = Points.diversity(FMMDS.select(pts, k).toSeq)
      val mfd = MFD.run(pts, k, MFD.Config(eps = 0.3, g = 1.0, seed = seed)).diversity
      if (fm >= 0.9 * mfd) wins += 1
    }
    assert(wins >= 4, s"FMMD-S outperformed MFD only $wins/5 times")
  }

  test("FMMD-S selection meets its own threshold guarantee vs brute force") {
    for (seed <- 1 to 5) {
      val pts = TestUtil.randomPoints(12, 2, 2, seed * 71L)
      val k = Map(0 -> math.min(2, pts.count(_.color == 0)),
                  1 -> math.min(2, pts.count(_.color == 1)))
      if (k.values.forall(_ > 0)) {
        val opt = TestUtil.bruteForceOpt(pts, k)
        val sel = FMMDS.select(pts, k)
        // delta sweep with 5% steps from an upper bound ⇒ ≥ (1-eps)·opt·(1/5)
        // in theory; on tiny instances the exact solver typically nails much
        // more — assert a conservative half.
        assert(Points.diversity(sel.toSeq) >= 0.5 * opt - 1e-9)
      }
    }
  }

  test("random selection has clearly worse diversity than MFD on clustered data") {
    var better = 0
    for (seed <- 1 to 5) {
      val pts = TestUtil.clusteredPoints(500, 2, 2, 10, seed * 83L)
      val k = Map(0 -> 5, 1 -> 5)
      val rd = Points.diversity(RandomSelect.select(pts, k, seed).toSeq)
      val md = MFD.run(pts, k, MFD.Config(seed = seed)).diversity
      if (md > rd) better += 1
    }
    assert(better >= 4, s"MFD beat random only $better/5 times")
  }

  test("SFDM-2 with smaller eps gives at least the diversity of larger eps (usually)") {
    var wins = 0
    for (seed <- 1 to 5) {
      val pts = TestUtil.clusteredPoints(400, 2, 2, 8, seed * 97L)
      val k = Map(0 -> 4, 1 -> 4)
      val d15 = Points.diversity(SFDM2.select(pts, k, 0.15).toSeq)
      val d75 = Points.diversity(SFDM2.select(pts, k, 0.75).toSeq)
      if (d15 >= d75 - 1e-9) wins += 1
    }
    assert(wins >= 3, s"eps=.15 beat eps=.75 only $wins/5 times")
  }

  test("SFDM-2 streaming state is bounded by levels × (m+1) × k") {
    val pts = TestUtil.clusteredPoints(1000, 2, 3, 6, 107L)
    val k = Map(0 -> 3, 1 -> 3, 2 -> 3)
    val eps = 0.5
    val algo = SFDM2.create(pts, k, eps)
    pts.foreach(algo.insert)
    val kTotal = k.values.sum
    // The μ grid `SFDM2.create` derives: d_max = d_G at Σk_j, d_min the least
    // non-zero distance in the Σk_j coreset; μ = 0, then d_min·(1+ε)^i up to
    // d_max·(1+ε), at most 400 of them.
    val cs = Coreset.local(pts, kTotal)
    val dMin = (for (i <- cs.indices; j <- i + 1 until cs.length) yield Points.dist(cs(i).x, cs(j).x)).filter(_ > 0).min
    val dMax = Gonzalez.diversityUpperBound(pts, kTotal)
    val levelCount = 1 + Iterator.iterate(dMin)(_ * (1 + eps)).takeWhile(_ <= dMax * (1 + eps)).take(400).length
    assert(algo.storedCount <= levelCount * (k.size + 1) * kTotal)
  }

  test("SFDM-2 returns Sweep.fallback of the mu = 0 level when a color is scarcer than k_j") {
    // Color 1 holds 2 points against k_1 = 4, so no level is fair.
    val pts = TestUtil.randomPoints(40, 2, 1, 19L) ++
      Array(LabeledPoint(100L, 1, Array(3.0, 3.0)), LabeledPoint(101L, 1, Array(60.0, 60.0)))
    val k = Map(0 -> 4, 1 -> 4)
    // The mu = 0 level keeps the first Σk_j = 8 points of each color.
    val expected = Sweep.fallback(pts.filter(_.color == 0).take(8) ++ pts.filter(_.color == 1), k).map(_.id).toSeq
    for (eps <- Seq(0.15, 0.75)) {
      val sel = SFDM2.select(pts, k, eps)
      assert(Points.colorCounts(sel.toSeq) == Map(0 -> 4, 1 -> 2), s"eps=$eps")
      assert(sel.map(_.id).distinct.length == sel.length, s"eps=$eps")
      assert(sel.map(_.id).toSeq == expected, s"eps=$eps")
    }
  }

  test("baseline deadline aborts") {
    val pts = TestUtil.clusteredPoints(20000, 4, 4, 10, 113L)
    val k = (0 until 4).map(_ -> 15).toMap
    assertThrows[Deadline.Exceeded] {
      SFDM2.select(pts, k, 0.05, System.nanoTime() + 1000L)
    }
  }

  test("FairFlow separation guarantee: selected points span distinct clusters") {
    val pts = TestUtil.clusteredPoints(300, 2, 2, 12, 127L)
    val k = Map(0 -> 4, 1 -> 4)
    val sel = FairFlow.select(pts, k)
    assert(sel.length >= 8)
    assert(Points.diversity(sel.toSeq) > 0)
  }

  test("a degenerate start sends FairFlow, FairGreedyFlow and FMMD-S to Sweep.fallback of the coreset") {
    // One location (start d_G = 0), and Σk_j = 1 (the diversity of one center is 0).
    val spread = TestUtil.randomPoints(50, 2, 2, 137L)
    for ((pts, k) <- Seq((oneLocation, Map(0 -> 3, 1 -> 3)), (spread, Map(0 -> 1, 1 -> 0)))) {
      val expected = Sweep.fallback(Coreset.local(pts, k.values.sum), k).map(_.id).toSeq
      for ((name, algo) <- algos.take(3))
        assert(algo(pts, k).map(_.id).toSeq == expected, s"$name on $k")
    }
  }

  // ---- GroupFlow: the max-flow step of FairFlow and FairGreedyFlow.

  private val flowCand = TestUtil.randomPoints(40, 2, 3, 131L)
  private val flowK = Map(0 -> 2, 1 -> 3, 2 -> 1)

  test("GroupFlow.onePerGroup picks k_j per color, at most one per group, none ungrouped") {
    // Groups of four consecutive candidates; every fifth candidate is in none.
    val group = flowCand.indices.map(i => if (i % 5 == 4) -1 else i / 4).toArray
    val sel = GroupFlow.onePerGroup(flowCand, flowK, group, 10).get
    assert(Points.colorCounts(sel.toSeq) == flowK)
    val idx = sel.map(p => flowCand.indexWhere(_.id == p.id))
    assert(idx.forall(group(_) >= 0))
    assert(idx.map(group).distinct.length == sel.length)
  }

  test("GroupFlow.onePerGroup is None when a color reaches fewer groups than k_j") {
    // Color 1 (k_j = 3) reaches only groups 0 and 1; the others reach all.
    val group = flowCand.indices.map(i => if (flowCand(i).color == 1) i % 2 else i % 10).toArray
    assert(GroupFlow.onePerGroup(flowCand, flowK, group, 10).isEmpty)
    assert(GroupFlow.onePerGroup(flowCand, flowK + (1 -> 2), group, 10).nonEmpty)
    // Fewer groups than Σk_j.
    assert(GroupFlow.onePerGroup(flowCand, flowK, flowCand.indices.map(_ % 5).toArray, 5).isEmpty)
  }
}
