package repro.core

import repro.{Oracle, SparkSpec, TestUtil}
import repro.data.Datasets

/** Point model, the flat-frame round trip (the oracle's `toFlatDF`, then
  * `Datasets.fromFlatDF`), and the oracle's SQL diversity, checked against
  * the in-memory value and DuckDB.
  */
class PointsSpec extends SparkSpec {

  test("dist and distSq agree") {
    val a = Array(1.0, 2.0, 3.0)
    val b = Array(4.0, 6.0, 3.0)
    assert(Points.distSq(a, b) == 25.0)
    assert(Points.dist(a, b) == 5.0)
  }

  test("diversity of fewer than 2 points is 0") {
    assert(Points.diversity(Seq.empty) == 0.0)
    assert(Points.diversity(Seq(LabeledPoint(0, 0, Array(1.0)))) == 0.0)
  }

  test("diversity matches explicit pairwise minimum") {
    for (seed <- 1 to 10) {
      val pts = TestUtil.randomPoints(15, 3, 2, seed * 5L).toSeq
      val explicit = (for {
        i <- pts.indices; j <- pts.indices if i < j
      } yield Points.dist(pts(i).x, pts(j).x)).min
      assert(math.abs(Points.diversity(pts) - explicit) < 1e-12)
    }
  }

  test("colorCounts / missedPerColor") {
    val pts = Seq(
      LabeledPoint(0, 0, Array(0.0)), LabeledPoint(1, 0, Array(1.0)),
      LabeledPoint(2, 1, Array(2.0)))
    assert(Points.colorCounts(pts) == Map(0 -> 2, 1 -> 1))
    assert(Points.missedPerColor(pts, Map(0 -> 2, 1 -> 1)) == Map(0 -> 0, 1 -> 0))
    assert(Points.missedPerColor(pts, Map(0 -> 2, 1 -> 2)) == Map(0 -> 0, 1 -> 1))
    assert(Points.missedPerColor(pts, Map(0 -> 3, 1 -> 1, 2 -> 2)) == Map(0 -> 1, 1 -> 0, 2 -> 2))
  }

  test("flat DataFrame round-trip preserves points") {
    val pts = TestUtil.randomPoints(50, 4, 3, 17L)
    val df = Oracle.toFlatDF(spark, pts.toSeq)
    assert(df.columns.toSeq == Seq("id", "color", "x0", "x1", "x2", "x3"))
    val back = Datasets.fromFlatDF(df).collect().sortBy(_.id)
    assert(back.length == pts.length)
    back.zip(pts.sortBy(_.id)).foreach { case (a, b) =>
      assert(a.id == b.id && a.color == b.color && a.x.toSeq == b.x.toSeq)
    }
  }

  for (seed <- 1 to 5) {
    test(s"diversityDF agrees with in-memory diversity and DuckDB oracle seed=$seed") {
      val pts = TestUtil.randomPoints(20, 2, 2, seed * 23L)
      val df = Oracle.toFlatDF(spark, pts.toSeq)
      val sparkDiv = Oracle.diversityDF(df)
      val expected = Points.diversity(pts.toSeq)
      val got = sparkDiv.collect()(0).getDouble(0)
      assert(math.abs(got - expected) < 1e-9)
      Oracle.assertEquivalent(sparkDiv, Oracle.diversitySql("pts", 2), "pts" -> df)
    }
  }

  test("diversityDF on higher dimension with oracle") {
    val pts = TestUtil.clusteredPoints(30, 6, 3, 4, 77L)
    val df = Oracle.toFlatDF(spark, pts.toSeq)
    Oracle.assertEquivalent(Oracle.diversityDF(df), Oracle.diversitySql("pts6", 6), "pts6" -> df)
  }
}
