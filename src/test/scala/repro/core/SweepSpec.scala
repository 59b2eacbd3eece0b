package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** The γ sweep and the fair fallback shared by MFD and the offline
  * baselines.
  */
class SweepSpec extends AnyFunSuite {

  private val cand = TestUtil.randomPoints(40, 2, 3, 131L)
  private val k = Map(0 -> 2, 1 -> 3, 2 -> 1)

  test("Sweep.geometric returns the first passing value of the geometric sequence") {
    val tried = scala.collection.mutable.ArrayBuffer[Double]()
    val marker = Array(cand(0))
    val acc = Sweep.geometric(8.0, 0.5, 10, Deadline.None) { sep =>
      tried += sep
      if (sep < 1.5) Some(marker) else None
    }.get
    assert(acc.result eq marker)
    assert(tried.toSeq == Seq(8.0, 4.0, 2.0, 1.0))
    assert(acc.value == 1.0 && acc.failed == 3)
  }

  test("Sweep.geometric gives up on a bad start or an exhausted sweep") {
    assert(Points.colorCounts(Sweep.fallback(cand, k).toSeq) == k)
    for (start <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity)) {
      var calls = 0
      val acc = Sweep.geometric(start, 0.85, 200, Deadline.None) { _ =>
        calls += 1; Some(Array.empty[LabeledPoint])
      }
      assert(calls == 0, s"start $start")
      assert(acc.isEmpty, s"start $start")
    }
    var calls = 0
    val acc = Sweep.geometric(10.0, 0.85, 7, Deadline.None) { _ => calls += 1; None }
    assert(calls == 7)
    assert(acc.isEmpty)
  }

  test("Sweep.geometric checks the deadline at every step") {
    assertThrows[Deadline.Exceeded] {
      Sweep.geometric(10.0, 0.85, 200, System.nanoTime() - 1L)(_ => None)
    }
    // A deadline that passes during the third value stops the fourth.
    var calls = 0
    val deadline = Deadline.in(500)
    assertThrows[Deadline.Exceeded] {
      Sweep.geometric(10.0, 0.85, 200, deadline) { _ =>
        calls += 1
        if (calls == 3) while (System.nanoTime() <= deadline) Thread.sleep(10)
        None
      }
    }
    assert(calls == 3)
  }

  test("Sweep.fallback is min(k_j, |P(c)|) farthest-first points per color, absent colors included") {
    val kk = Map(0 -> 2, 1 -> 0, 2 -> 100, 7 -> 3) // k_1 = 0; color 7 absent
    val sel = Sweep.fallback(cand, kk)
    val byColor = sel.groupBy(_.color)
    for ((c, kc) <- kk) {
      val ofC = cand.filter(_.color == c)
      val got = byColor.getOrElse(c, Array.empty[LabeledPoint])
      assert(got.length == math.min(kc, ofC.length), s"color $c")
      assert(got.map(_.id).toSeq == Gonzalez.centers(ofC, kc).map(_.id).toSeq, s"color $c")
    }
    assert(sel.map(_.id).distinct.length == sel.length)
    // Colors come in k's iteration order.
    assert(sel.map(_.color).distinct.toSeq == kk.keys.filter(c => byColor.contains(c)).toSeq)
  }
}
