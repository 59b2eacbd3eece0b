package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Gonzalez, LabeledPoint, Points}

/** Streaming substrate (doubling k-center) and StreamMFD end-to-end. */
class StreamSpec extends AnyFunSuite {

  for (seed <- 1 to 8) {
    test(s"doubling algorithm keeps at most k centers and covers the stream seed=$seed") {
      val k = 8
      val pts = TestUtil.clusteredPoints(600, 2, 1, 6, seed * 31L)
      val alg = new DoublingKCenter(k)
      pts.foreach(alg.insert)
      val cs = alg.centers
      assert(cs.length <= k && cs.nonEmpty)
      assert(alg.seen == pts.length)
      // Every streamed point is within 4τ of a center (doubling invariant).
      val tau = alg.threshold
      if (tau > 0) {
        pts.foreach { p =>
          val d = cs.map(c => Points.dist(p.x, c.x)).min
          assert(d <= 4 * tau + 1e-9, s"point at $d vs 4tau=${4 * tau}")
        }
        // Centers are pairwise > 2τ apart.
        for (i <- cs.indices; j <- cs.indices if i < j)
          assert(Points.dist(cs(i).x, cs(j).x) > 2 * tau - 1e-9)
      }
    }
  }

  for (seed <- 1 to 5) {
    test(s"doubling radius is a constant-factor k-center solution seed=$seed") {
      val k = 6
      val pts = TestUtil.clusteredPoints(400, 2, 1, 5, seed * 41L)
      val alg = new DoublingKCenter(k)
      pts.foreach(alg.insert)
      val streamRadius = pts.map(p => alg.centers.map(c => Points.dist(p.x, c.x)).min).max
      val offline = Gonzalez.run(pts, k) // ≤ 2·OPT ⇒ OPT ≥ radius/2
      val optLb = offline.radius / 2.0
      // Doubling is an 8-approx; allow 16 for the τ-initialisation slack.
      assert(streamRadius <= 16.0 * math.max(optLb, 1e-9) + 1e-9,
        s"stream radius $streamRadius vs offline ${offline.radius}")
    }
  }

  test("fewer than k points: all kept, τ stays 0") {
    val alg = new DoublingKCenter(10)
    val pts = TestUtil.randomPoints(5, 2, 1, 3L)
    pts.foreach(alg.insert)
    assert(alg.centers.length == 5 && alg.threshold == 0.0)
  }

  test("duplicate stream collapses to few centers") {
    val alg = new DoublingKCenter(3)
    val p = repro.core.LabeledPoint(0, 0, Array(1.0, 1.0))
    (1 to 100).foreach(i => alg.insert(p.copy(id = i.toLong)))
    assert(alg.centers.length <= 3)
  }

  for (seed <- 1 to 5) {
    test(s"StreamMFD returns a fair diverse set over the stream seed=$seed") {
      val pts = TestUtil.clusteredPoints(1500, 2, 3, 8, seed * 51L)
      val counts = Points.colorCounts(pts.toSeq)
      val k = counts.map { case (c, _) => c -> 4 }
      val s = new StreamMFD(k)
      pts.foreach(s.insert)
      assert(s.storedCount <= k.size * 3 * k.values.sum)
      val res = s.postProcess()
      assert(res.selected.nonEmpty && res.diversity > 0)
      // Synopsis points come from the stream.
      val ids = pts.map(_.id).toSet
      s.synopsis.foreach(p => assert(ids.contains(p.id)))
    }
  }

  test("StreamMFD diversity is comparable to offline MFD on the same data") {
    var ok = 0
    for (seed <- 1 to 5) {
      val pts = TestUtil.clusteredPoints(1200, 2, 2, 10, seed * 61L)
      val k = Map(0 -> 4, 1 -> 4)
      val s = new StreamMFD(k)
      pts.foreach(s.insert)
      val streamDiv = s.postProcess().diversity
      val offline = repro.core.MFD.run(repro.core.Coreset.local(pts, 8), k).diversity
      if (streamDiv >= 0.25 * offline) ok += 1
    }
    assert(ok >= 3, s"stream within 0.25x of offline only $ok/5 times")
  }

  test("StreamMFD on a duplicate stream missing a requested color is fair for what it holds") {
    val s = new StreamMFD(Map(0 -> 2, 1 -> 2))
    (1 to 5).foreach(i => s.insert(LabeledPoint(i.toLong, 0, Array(1.0, 1.0))))
    assert(Points.missedPerColor(s.postProcess().selected.toSeq, Map(0 -> 2)).values.forall(_ == 0))
  }

  test("synopsis is a per-color union of at most k centers each") {
    val pts = TestUtil.clusteredPoints(800, 3, 4, 6, 71L)
    val k = (0 until 4).map(_ -> 3).toMap
    val s = new StreamMFD(k)
    pts.foreach(s.insert)
    val syn = s.synopsis
    syn.groupBy(_.color).foreach { case (_, g) => assert(g.length <= 3 * k.values.sum) }
  }
}
