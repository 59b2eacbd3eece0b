package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** End-to-end MFD correctness on brute-forceable instances.
  *
  * Checks, per Theorem 3.2 (with the paper's own implementation deviations):
  *  - diversity: div(S) ≥ 0.8·OPT/(2(1+ε)) — the 0.8 absorbs the geometric
  *    γ sweep granularity (one 0.85 step below the optimum in the worst
  *    case);
  *  - fairness in expectation: averaged over many rounding seeds,
  *    |S(c_j)| approaches k_j/(1+ε);
  *  - exact fairness when the MWU loop stopped on an integral pick (fewer
  *    iterations than the cap `⌈g·k·ln n/ε²⌉`): exactly k_j points of each
  *    color, pairwise more than γ/(2(1+ε)) apart, whatever the rounding seed;
  *  - paper mode runs the cap every time, and a run that reached the cap
  *    returns what paper mode returns;
  *  - structural guarantees: selected points are input points, pairwise
  *    distance of S ≥ γ/(2(1+ε)) exactly (deterministic from Round).
  */
class MFDSpec extends AnyFunSuite {

  /** Random instance `s`: n 50–950, d 1–6, m 1–5, on an integer grid (so
    * points repeat), k_j 1–5 clipped to the input, ε and g varying with `s`.
    */
  private def gridInstance(s: Int): (Array[LabeledPoint], Map[Int, Int], MFD.Config) = {
    val rnd = new java.util.Random(1000L + s)
    val n = 50 + rnd.nextInt(901); val d = 1 + rnd.nextInt(6); val m = 1 + rnd.nextInt(5)
    val grid = 4 + rnd.nextInt(20)
    val pts = Array.tabulate(n)(i => LabeledPoint(i.toLong, rnd.nextInt(m), Array.fill(d)(rnd.nextInt(grid).toDouble)))
    val k = MFD.attainable(pts, (0 until m).map(c => c -> (1 + rnd.nextInt(5))).toMap)
    (pts, k, MFD.Config(eps = if (s % 2 == 0) 0.3 else 0.5, g = Seq(0.1, 0.3, 1.0)(s % 3), seed = s))
  }

  /** The iteration cap `⌈g·k·ln n/ε²⌉`, as `MFD.run` computes it. */
  private def cap(n: Int, k: Map[Int, Int], cfg: MFD.Config): Int =
    math.max(1, math.ceil(cfg.g * k.values.sum * math.log(math.max(2, n)) / (cfg.eps * cfg.eps)).toInt)

  private def sortedIds(r: MFD.Result): Seq[Long] = r.selected.map(_.id).sorted.toSeq

  test("a run that stops before the cap returns exactly k_j per color, separated, for every seed") {
    var stopped = 0
    for (s <- 1 to 60) {
      val (pts, k, cfg) = gridInstance(s)
      val res = MFD.run(pts, k, cfg)
      // mwuIterations = 0 is the fallback, which accepted no γ.
      if (res.mwuIterations >= 1 && res.mwuIterations < cap(pts.length, k, cfg)) {
        stopped += 1
        assert(Points.colorCounts(res.selected.toSeq) == k.filter(_._2 > 0), s"instance $s")
        assert(res.selected.map(_.id).distinct.length == res.selected.length, s"instance $s")
        if (res.selected.length >= 2)
          assert(res.diversity > res.gamma / (2 * (1 + cfg.eps)), s"instance $s")
        for (seed <- 101 to 103)
          assert(sortedIds(MFD.run(pts, k, cfg.copy(seed = seed))) == sortedIds(res), s"instance $s seed $seed")
      }
    }
    assert(stopped >= 30, s"only $stopped of 60 instances stopped early")
  }

  test("one well-separated cluster per color stops at the first pick") {
    val rnd = new java.util.Random(5L)
    val pts = Array.tabulate(60)(i => LabeledPoint(i.toLong, i % 3,
      Array(100.0 * (i % 3) + rnd.nextDouble(), rnd.nextDouble())))
    val k = Map(0 -> 1, 1 -> 1, 2 -> 1)
    val res = MFD.run(pts, k, MFD.Config(eps = 0.3, g = 0.3))
    assert(res.mwuIterations == 1)
    assert(res.gamma > 0.0)
    assert(Points.colorCounts(res.selected.toSeq) == k)
    assert(sortedIds(MFD.run(pts, k, MFD.Config(eps = 0.3, g = 0.3, seed = 99L))) == sortedIds(res))
  }

  test("paper mode runs the full cap, and a run that reaches the cap matches paper mode") {
    for (s <- 1 to 60) {
      val (pts, k, cfg) = gridInstance(s)
      val paper = MFD.run(pts, k, cfg.copy(paper = true))
      if (paper.gamma > 0.0) assert(paper.mwuIterations == cap(pts.length, k, cfg), s"instance $s")
      val res = MFD.run(pts, k, cfg)
      if (res.mwuIterations == cap(pts.length, k, cfg)) {
        assert(sortedIds(res) == sortedIds(paper), s"instance $s")
        assert(res.gamma == paper.gamma && res.gammaSteps == paper.gammaSteps, s"instance $s")
      }
    }
  }

  for (seed <- 1 to 12) {
    test(s"diversity within provable factor of brute-force optimum seed=$seed") {
      val pts = TestUtil.randomPoints(12, 2, 2, seed * 37L)
      val k = Map(0 -> 2, 1 -> 2)
      if (pts.count(_.color == 0) >= 2 && pts.count(_.color == 1) >= 2) {
        val opt = TestUtil.bruteForceOpt(pts, k)
        val eps = 0.25
        val res = MFD.run(pts, k, MFD.Config(eps = eps, g = 1.0, seed = seed))
        assert(res.diversity >= 0.8 * opt / (2 * (1 + eps)) - 1e-9,
          s"div ${res.diversity} vs opt $opt (gamma=${res.gamma})")
      }
    }
  }

  for (seed <- 1 to 6) {
    test(s"selected set respects the gamma separation exactly seed=$seed") {
      val pts = TestUtil.clusteredPoints(80, 3, 3, 6, seed * 41L)
      val counts = Points.colorCounts(pts.toSeq)
      val k = counts.map { case (c, n) => c -> math.min(3, n) }
      val eps = 0.5
      val res = MFD.run(pts, k, MFD.Config(eps = eps, g = 0.5, seed = seed))
      // Deterministic guarantee from Round: min pairwise distance of S is
      // at least gamma / (2(1+eps)).
      if (res.selected.length >= 2)
        assert(Points.diversity(res.selected.toSeq) >= res.gamma / (2 * (1 + eps)) - 1e-9)
      // Selected points are input points.
      val ids = pts.map(_.id).toSet
      res.selected.foreach(p => assert(ids.contains(p.id)))
      // No duplicates.
      assert(res.selected.map(_.id).distinct.length == res.selected.length)
    }
  }

  test("fairness holds in expectation over rounding seeds") {
    val pts = TestUtil.clusteredPoints(120, 2, 2, 8, 99L)
    val k = Map(0 -> 4, 1 -> 4)
    val eps = 0.3
    val runs = 40
    val totals = scala.collection.mutable.Map(0 -> 0, 1 -> 0)
    for (s <- 1 to runs) {
      val res = MFD.run(pts, k, MFD.Config(eps = eps, g = 1.0, seed = s))
      val counts = Points.colorCounts(res.selected.toSeq)
      totals(0) += counts.getOrElse(0, 0)
      totals(1) += counts.getOrElse(1, 0)
    }
    // E[|S(c_j)|] >= k_j/(1+eps); allow statistical slack of 0.75 of that.
    val bound = 0.75 * 4 / (1 + eps)
    assert(totals(0).toDouble / runs >= bound, s"color0 avg ${totals(0).toDouble / runs}")
    assert(totals(1).toDouble / runs >= bound, s"color1 avg ${totals(1).toDouble / runs}")
  }

  test("selectCheapest matches a (weight, index) sort, ties included") {
    val rnd = new java.util.Random(23L)
    for (trial <- 1 to 300) {
      val n = 1 + rnd.nextInt(40)
      // Few distinct weights: most comparisons are exact ties.
      val distinct = if (trial % 3 == 0) 1 else 1 + rnd.nextInt(6)
      val w = Array.fill(60)(rnd.nextInt(distinct) / 8.0)
      val idxs = rnd.ints(0, 60).distinct().limit(n.toLong).toArray.sorted
      val pick = new Array[Int](idxs.length)
      for (kc <- Seq(0, 1, n / 2, n - 1, n, n + 3)) {
        val m = MFD.selectCheapest(idxs, w, kc, pick)
        val ref = idxs.sortBy(i => (w(i), i)).take(math.max(kc, 0))
        assert(m == ref.length, s"trial=$trial kc=$kc")
        assert(pick.take(m).sorted.sameElements(ref.sorted), s"trial=$trial kc=$kc")
      }
    }
  }

  test("gamma steps down when the start is infeasible") {
    val rnd = new java.util.Random(3)
    val spread = Array.tabulate(30)(i => LabeledPoint(i.toLong, 0, Array(rnd.nextDouble() * 100, rnd.nextDouble() * 100)))
    val clump = Array.tabulate(10)(i => LabeledPoint(30L + i, 1, Array(50 + rnd.nextDouble(), 50 + rnd.nextDouble())))
    val pts = spread ++ clump
    val k = Map(0 -> 2, 1 -> 2)
    val eps = 0.3
    val res = MFD.run(pts, k, MFD.Config(eps = eps, g = 1.0, seed = 1))
    assert(res.gammaSteps >= 1, s"gammaSteps=${res.gammaSteps}")
    assert(Points.diversity(res.selected.toSeq) >= res.gamma / (2 * (1 + eps)) - 1e-9)
    assert(Points.missedPerColor(res.selected.toSeq, k).values.forall(_ == 0), s"counts ${Points.colorCounts(res.selected.toSeq)}")
  }

  test("an exhausted sweep falls back to a fair set at gamma 0 and reports its steps") {
    // Color 1's only two points are 1e-12 apart, so no γ of the 120-step
    // sweep from d_G is feasible.
    val rnd = new java.util.Random(1)
    val spread = Array.tabulate(20)(i => LabeledPoint(i.toLong, 0, Array(rnd.nextDouble() * 100, rnd.nextDouble() * 100)))
    val pair = Array(LabeledPoint(20L, 1, Array(50.0, 50.0)), LabeledPoint(21L, 1, Array(50.0 + 1e-12, 50.0)))
    val k = Map(0 -> 2, 1 -> 2)
    val eps = 0.3
    val res = MFD.run(spread ++ pair, k, MFD.Config(eps = eps, g = 1.0, seed = 1))
    assert(Points.diversity(res.selected.toSeq) >= res.gamma / (2 * (1 + eps)),
      s"div ${res.diversity} < gamma ${res.gamma} / (2(1+eps))")
    assert(Points.missedPerColor(res.selected.toSeq, k).values.forall(_ == 0), s"counts ${Points.colorCounts(res.selected.toSeq)}")
    assert(res.gamma == 0.0)
    assert(res.gammaSteps == 120)
    assert(res.selected.map(_.id).toSeq == Sweep.fallback(spread ++ pair, k).map(_.id).toSeq)
  }

  test("g controls the iteration budget") {
    val pts = TestUtil.randomPoints(60, 2, 2, 7L)
    val k = Map(0 -> 3, 1 -> 3)
    val r1 = MFD.run(pts, k, MFD.Config(g = 0.1))
    val r2 = MFD.run(pts, k, MFD.Config(g = 0.7))
    assert(r2.mwuIterations > r1.mwuIterations)
  }

  test("infeasible input (color scarcer than k_j) is rejected") {
    val pts = TestUtil.randomPoints(20, 2, 2, 5L)
    val kBad = Map(0 -> (pts.count(_.color == 0) + 1), 1 -> 1)
    assertThrows[IllegalArgumentException](MFD.run(pts, kBad))
  }

  test("duplicate-heavy degenerate input returns a fair set") {
    val pts = Array.tabulate(20)(i => LabeledPoint(i.toLong, i % 2, Array(1.0, 1.0)))
    val res = MFD.run(pts, Map(0 -> 3, 1 -> 3))
    assert(Points.missedPerColor(res.selected.toSeq, Map(0 -> 3, 1 -> 3)).values.forall(_ == 0))
    assert(res.gamma == 0.0)
  }

  test("a single point to pick (Σk_j = 1) takes the fallback with gamma 0 and diversity 0") {
    val pts = TestUtil.randomPoints(40, 2, 2, 29L)
    for (k <- Seq(Map(0 -> 1), Map(0 -> 0, 1 -> 1))) {
      val res = MFD.run(pts, k)
      assert(res.selected.map(_.id).toSeq == Sweep.fallback(pts, k).map(_.id).toSeq, s"$k")
      assert(res.selected.length == 1, s"$k")
      assert(res.gamma == 0.0 && res.diversity == 0.0, s"$k")
      assert(res.gammaSteps == 0 && res.mwuIterations == 0, s"$k")
    }
  }

  test("a color absent from the input with k_j = 0 does not break the fallback") {
    val p = LabeledPoint(0, 0, Array(0.0))
    val res = MFD.run(Array(p), Map(0 -> 1, 1 -> 0))
    assert(res.selected.map(_.id).toSeq == Seq(0L))
  }

  test("attainable drops absent colors and clips to the count") {
    val pts = Array.tabulate(3)(i => LabeledPoint(i.toLong, 0, Array(i.toDouble)))
    assert(MFD.attainable(pts, Map(0 -> 5, 1 -> 2)) == Map(0 -> 3))
    assert(MFD.attainable(pts, Map(0 -> 2)) == Map(0 -> 2))
  }

  test("single color behaves like unfair max-min diversification") {
    val pts = TestUtil.randomPoints(30, 2, 1, 13L)
    val k = Map(0 -> 5)
    val res = MFD.run(pts, k, MFD.Config(eps = 0.25, g = 1.0))
    // Compare against Gonzalez diversity (a 1/2-approx of sigma_k): MFD
    // should be in the same ballpark (within its own 1/(2(1+eps)) factor).
    val gdiv = Points.diversity(Gonzalez.centers(pts, 5).toSeq)
    assert(res.diversity >= 0.8 * gdiv / (2 * (1 + 0.25)) - 1e-9)
  }

  test("deadline aborts long runs") {
    val pts = TestUtil.clusteredPoints(3000, 4, 4, 10, 55L)
    val k = (0 until 4).map(_ -> 20).toMap
    assertThrows[Deadline.Exceeded] {
      MFD.run(pts, k, MFD.Config(g = 1.0, deadlineNanos = System.nanoTime() + 1000000L))
    }
  }

  test("k larger than a color class via coreset-sized instance still fair-feasible") {
    val pts = TestUtil.clusteredPoints(200, 2, 3, 5, 67L)
    val counts = Points.colorCounts(pts.toSeq)
    val k = counts.map { case (c, n) => c -> math.min(2, n) }
    val res = MFD.run(pts, k)
    assert(res.selected.nonEmpty)
  }

  for (seed <- 1 to 5) {
    test(s"three colors, uneven k_j seed=$seed") {
      val pts = TestUtil.clusteredPoints(150, 2, 3, 6, seed * 71L)
      val counts = Points.colorCounts(pts.toSeq)
      if (counts.size == 3 && counts.values.forall(_ >= 5)) {
        val k = Map(0 -> 4, 1 -> 2, 2 -> 1)
        val res = MFD.run(pts, k, MFD.Config(eps = 0.4, g = 0.5, seed = seed))
        assert(res.diversity > 0)
        assert(res.selected.map(_.id).distinct.length == res.selected.length)
      }
    }
  }
}
