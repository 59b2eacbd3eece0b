package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Gonzalez k-center: 2-approximation property (vs brute-force optimum on
  * tiny instances), monotone radii, determinism, degenerate inputs.
  */
class GonzalezSpec extends AnyFunSuite {

  /** Brute-force optimal k-center radius. */
  private def optRadius(pts: Array[LabeledPoint], k: Int): Double = {
    var best = Double.PositiveInfinity
    pts.indices.combinations(k).foreach { centers =>
      val r = pts.map(p => centers.map(c => Points.dist(p.x, pts(c).x)).min).max
      if (r < best) best = r
    }
    best
  }

  for (seed <- 1 to 10) {
    test(s"2-approximation vs brute force seed=$seed") {
      val pts = TestUtil.randomPoints(12, 2, 1, seed * 11L)
      for (k <- 1 to 4) {
        val res = Gonzalez.run(pts, k)
        val opt = optRadius(pts, k)
        assert(res.radius <= 2.0 * opt + 1e-9, s"k=$k radius ${res.radius} opt $opt")
        assert(res.centers.length == k)
        assert(res.centers.distinct.length == k)
      }
    }
  }

  for (seed <- 1 to 5) {
    test(s"radius decreases with k seed=$seed") {
      val pts = TestUtil.randomPoints(60, 3, 1, seed * 7L)
      val radii = (1 to 10).map(k => Gonzalez.run(pts, k).radius)
      radii.sliding(2).foreach { case Seq(a, b) => assert(b <= a + 1e-12) }
    }
  }

  test("deterministic") {
    val pts = TestUtil.randomPoints(100, 4, 1, 3L)
    val a = Gonzalez.run(pts, 7)
    val b = Gonzalez.run(pts, 7)
    assert(a.centers.toSeq == b.centers.toSeq && a.radius == b.radius)
  }

  test("k >= n returns all points with radius 0") {
    val pts = TestUtil.randomPoints(5, 2, 1, 4L)
    val res = Gonzalez.run(pts, 10)
    assert(res.centers.length == 5)
    assert(res.radius == 0.0)
  }

  test("duplicate coordinates give distinct centers, radius 0 once every location is one") {
    val a = Array(1.0, 2.0)
    val pts = Array(LabeledPoint(0, 0, a), LabeledPoint(1, 0, a.clone()), LabeledPoint(2, 0, Array(5.0, 2.0)))
    val res = Gonzalez.run(pts, 3)
    assert(res.centers.sorted.toSeq == Seq(0, 1, 2))
    assert(res.radius == 0.0)
    val two = Gonzalez.run(pts, 2)
    assert(two.centers.toSeq == Seq(0, 2) && two.radius == 0.0)
    val oneSpot = Array.tabulate(20)(i => LabeledPoint(i, i % 2, Array(3.0, 3.0)))
    assert(Gonzalez.run(oneSpot, 6).centers.distinct.length == 6)
  }

  test("empty input") {
    val res = Gonzalez.run(Array.empty[LabeledPoint], 3)
    assert(res.centers.isEmpty && res.radius == 0.0)
  }

  test("radius covers every point") {
    val pts = TestUtil.clusteredPoints(200, 3, 2, 5, 21L)
    val res = Gonzalez.run(pts, 8)
    val centers = res.centers.map(pts)
    pts.foreach { p =>
      val d = centers.map(c => Points.dist(p.x, c.x)).min
      assert(d <= res.radius + 1e-9)
    }
  }

  test("diversity upper bound exceeds fair optimum on small instance") {
    val pts = TestUtil.randomPoints(10, 2, 2, 31L)
    val k = Map(0 -> 2, 1 -> 2)
    val opt = TestUtil.bruteForceOpt(pts, k)
    // On this instance the min pairwise distance d_G of colorblind
    // Gonzalez(k) centers, the paper's sweep start (§6), is at least the fair
    // optimum; in general only 2·d_G bounds it.
    val ub = Gonzalez.diversityUpperBound(pts, 4)
    assert(ub >= opt - 1e-9)
  }

  /** Obviously-correct reference: keep every point's distance to its
    * nearest chosen center, and take as the next center the first point,
    * not yet chosen, at the largest such distance. Index 0 comes first.
    */
  private def naive(pts: Array[LabeledPoint], k: Int): Gonzalez.Result = {
    def d2(p: LabeledPoint, c: LabeledPoint): Double =
      p.x.indices.foldLeft(0.0)((s, j) => s + (p.x(j) - c.x(j)) * (p.x(j) - c.x(j)))
    val n = pts.length
    val kk = math.min(k, n)
    val minD = Array.fill(n)(Double.PositiveInfinity)
    val chosen = scala.collection.mutable.ArrayBuffer[Int]()
    var cur = 0
    while (chosen.length < kk) {
      chosen += cur
      for (i <- 0 until n) minD(i) = math.min(minD(i), d2(pts(i), pts(cur)))
      if (chosen.length < kk) cur = (0 until n).filterNot(chosen.contains).maxBy(minD(_))
    }
    Gonzalez.Result(chosen.toArray, if (n == 0) 0.0 else math.sqrt(minD.max))
  }

  test("the column kernel matches the naive reference on 400 random inputs") {
    val rnd = new scala.util.Random(97L)
    for (t <- 0 until 400) {
      // Inputs 240 and on add d = 3 and d = 8 (Diabetes), in runs of 20.
      val d = if (t < 240) Seq(1, 2, 6)(t % 3) else Seq(3, 8)(t / 20 % 2)
      val n = if (t % 20 == 0) 0 else if (t % 20 == 1) 1 else 2 + rnd.nextInt(60)
      // Every fourth input sits on a 3-wide integer grid, so it holds duplicates.
      val grid = t % 4 == 0
      val pts = Array.tabulate(n) { i =>
        LabeledPoint(i, 0, Array.fill(d)(if (grid) rnd.nextInt(3).toDouble else rnd.nextGaussian() * 10))
      }
      val k = 1 + rnd.nextInt(n + 5) // k > n on some inputs
      val got = Gonzalez.run(pts, k)
      val want = naive(pts, k)
      assert(got.centers.toSeq == want.centers.toSeq, s"input $t (n=$n, d=$d, k=$k)")
      assert(got.radius == want.radius, s"input $t (n=$n, d=$d, k=$k)")
    }
  }

  test("gonzalez centers have diversity >= half the unfair optimum") {
    // div(Gonzalez k picks) >= sigma_k / 2 (Tamir / Ravi et al.).
    for (seed <- 1 to 6) {
      val pts = TestUtil.randomPoints(11, 2, 1, seed * 101L)
      val k = 4
      var sigma = -1.0
      pts.toSeq.combinations(k).foreach { s =>
        val d = Points.diversity(s)
        if (d > sigma) sigma = d
      }
      val div = Points.diversity(Gonzalez.centers(pts, k).toSeq)
      assert(div >= sigma / 2.0 - 1e-9)
    }
  }
}
