package repro.range

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Coreset, LabeledPoint, MFD, Points}

/** Range-query structure (Theorem 5.2): results lie inside the rectangle,
  * fairness is clipped to what the range contains, and the query diversity
  * is comparable to running MFD offline on P ∩ R.
  */
class QFairDivSpec extends AnyFunSuite {

  private def rect(lo: Double, hi: Double, d: Int): (Array[Double], Array[Double]) =
    (Array.fill(d)(lo), Array.fill(d)(hi))

  for (seed <- 1 to 6) {
    test(s"query results lie in the rectangle and are fair seed=$seed") {
      val pts = TestUtil.clusteredPoints(2000, 2, 3, 10, seed * 23L)
      val q = new QFairDiv(pts, kMax = 12)
      val (qlo, qhi) = rect(20.0, 80.0, 2)
      val inR = pts.filter(p => p.x.forall(v => v >= 20.0 && v <= 80.0))
      if (inR.nonEmpty) {
        val counts = Points.colorCounts(inR.toSeq)
        val k = counts.map { case (c, n) => c -> math.min(3, n) }
        val res = q.query(qlo, qhi, k)
        res.selected.foreach { p =>
          p.x.foreach(v => assert(v >= 20.0 - 1e-9 && v <= 80.0 + 1e-9))
        }
        val ids = inR.map(_.id).toSet
        res.selected.foreach(p => assert(ids.contains(p.id)))
      }
    }
  }

  test("whole-space query matches offline coreset MFD quality") {
    var ok = 0
    for (seed <- 1 to 5) {
      val pts = TestUtil.clusteredPoints(1500, 2, 2, 8, seed * 33L)
      val q = new QFairDiv(pts, kMax = 10)
      val k = Map(0 -> 4, 1 -> 4)
      val (qlo, qhi) = rect(-1000.0, 1000.0, 2)
      val queryDiv = q.query(qlo, qhi, k, MFD.Config(seed = seed)).diversity
      val offline = MFD.run(Coreset.local(pts, 8), k, MFD.Config(seed = seed)).diversity
      if (queryDiv >= 0.4 * offline) ok += 1
    }
    assert(ok >= 4, s"query within 0.4x of offline only $ok/5")
  }

  test("range coreset covers range points within a constant-factor radius") {
    val pts = TestUtil.clusteredPoints(3000, 2, 2, 12, 43L)
    val q = new QFairDiv(pts, kMax = 8)
    val (qlo, qhi) = rect(10.0, 70.0, 2)
    val inR = pts.filter(p => p.x.forall(v => v >= 10.0 && v <= 70.0))
    val cs = q.rangeCoreset(qlo, qhi, 8)
    assert(cs.nonEmpty)
    // Coreset points that claim to represent the range must come from P.
    val ids = pts.map(_.id).toSet
    cs.foreach(p => assert(ids.contains(p.id)))
    // Per color, the coreset's coverage radius over P∩R is within a constant
    // of the offline per-color Gonzalez radius on P∩R.
    inR.groupBy(_.color).foreach { case (c, g) =>
      val mine = cs.filter(_.color == c)
      if (mine.nonEmpty && g.length > 8) {
        val rQuery = g.map(p => mine.map(s => Points.dist(p.x, s.x)).min).max
        val rOffline = repro.core.Gonzalez.run(g, 8).radius
        assert(rQuery <= 6.0 * math.max(rOffline, 1e-9) + 1e-9,
          s"color $c coverage $rQuery vs offline $rOffline")
      }
    }
  }

  test("empty-range query is rejected") {
    val pts = TestUtil.clusteredPoints(500, 2, 2, 5, 53L)
    val q = new QFairDiv(pts, kMax = 5)
    val (qlo, qhi) = rect(-500.0, -400.0, 2)
    assertThrows[IllegalArgumentException](q.query(qlo, qhi, Map(0 -> 2)))
  }

  test("k_j larger than range population is clipped") {
    val pts = TestUtil.clusteredPoints(600, 2, 2, 6, 63L)
    val q = new QFairDiv(pts, kMax = 10)
    // The bounding box of pts(0)'s nine nearest points: a handful of points.
    val near = pts.sortBy(p => Points.dist(p.x, pts(0).x)).take(9)
    val lo = Array(near.map(_.x(0)).min, near.map(_.x(1)).min)
    val hi = Array(near.map(_.x(0)).max, near.map(_.x(1)).max)
    val inR = pts.filter(p => p.x(0) >= lo(0) && p.x(0) <= hi(0) && p.x(1) >= lo(1) && p.x(1) <= hi(1))
    val k = Map(0 -> 5, 1 -> 5)
    val inRCount = k.map { case (c, _) => c -> inR.count(_.color == c) }
    assert(inRCount.values.forall(_ > 0) && inRCount.values.exists(_ < 5), s"rectangle holds $inRCount")
    val clipped = k.map { case (c, kc) => c -> math.min(kc, inRCount(c)) }
    assert(MFD.attainable(q.rangeCoreset(lo, hi, k.values.sum), k) == clipped)
    val ids = inR.map(_.id).toSet
    assert(q.query(lo, hi, k).selected.forall(p => ids.contains(p.id)))
  }

  test("a query asking for more than kMax points in total is rejected") {
    val pts = TestUtil.randomPoints(2000, 2, 2, 71L)
    val q = new QFairDiv(pts, kMax = 5)
    val (qlo, qhi) = rect(-1000.0, 1000.0, 2)
    assertThrows[IllegalArgumentException](q.query(qlo, qhi, Map(0 -> 8, 1 -> 8)))
  }

  /** The range coreset lies in P ∩ R, has distinct ids, and holds exactly
    * min(kMax, kTotal, |P(c) ∩ R|) points of every color c.
    */
  private def assertCoresetContract(q: QFairDiv, pts: Array[LabeledPoint], kMax: Int,
                                    qlo: Array[Double], qhi: Array[Double], kTotal: Int): Unit = {
    val inR = pts.filter(p => p.x.indices.forall(j => p.x(j) >= qlo(j) && p.x(j) <= qhi(j)))
    val cs = q.rangeCoreset(qlo, qhi, kTotal)
    val ids = inR.map(_.id).toSet
    assert(cs.forall(p => ids.contains(p.id)), "coreset point outside P ∩ R")
    assert(cs.map(_.id).distinct.length == cs.length, "repeated id")
    val want = math.min(kMax, kTotal)
    val counts = Points.colorCounts(inR.toSeq)
    assert(Points.colorCounts(cs.toSeq) == counts.map { case (c, n) => c -> math.min(want, n) }.filter(_._2 > 0),
      s"kTotal=$kTotal, P ∩ R holds $counts")
  }

  for (d <- Seq(1, 2, 6); n <- Seq(40, 1500)) {
    test(s"range coreset contract on random rectangles d=$d n=$n") {
      val kMax = 5 // bucket = 64: n = 40 is one small node, n = 1500 has sampled nodes
      val rnd = new java.util.Random(d * 1000L + n)
      // An integer grid, so points repeat and sit on rectangle borders.
      val pts = Array.tabulate(n)(i => LabeledPoint(i.toLong, rnd.nextInt(3), Array.fill(d)(rnd.nextInt(12).toDouble)))
      val q = new QFairDiv(pts, kMax)
      for (_ <- 1 to 40) {
        val a = Array.fill(d)(rnd.nextInt(14) - 1.0)
        val b = Array.fill(d)(rnd.nextInt(14) - 1.0)
        val qlo = Array.tabulate(d)(j => math.min(a(j), b(j)))
        val qhi = Array.tabulate(d)(j => math.max(a(j), b(j)))
        assertCoresetContract(q, pts, kMax, qlo, qhi, 1 + rnd.nextInt(2 * kMax))
      }
      // A zero-width rectangle at an input point, and the whole space.
      val p = pts(rnd.nextInt(n)).x
      assertCoresetContract(q, pts, kMax, p, p, kMax)
      val (qlo, qhi) = rect(-1.0, 12.0, d)
      assertCoresetContract(q, pts, kMax, qlo, qhi, kMax)
    }
  }

  test("range coreset contract on 300 points at one location") {
    val pts = Array.tabulate(300)(i => LabeledPoint(i.toLong, i % 3, Array(5.0, 5.0)))
    val q = new QFairDiv(pts, kMax = 5)
    for (kTotal <- Seq(1, 3, 5, 9)) {
      assertCoresetContract(q, pts, 5, Array(5.0, 5.0), Array(5.0, 5.0), kTotal)
      assertCoresetContract(q, pts, 5, Array(0.0, 0.0), Array(10.0, 10.0), kTotal)
      assertCoresetContract(q, pts, 5, Array(0.0, 0.0), Array(4.0, 10.0), kTotal)
    }
  }
}
