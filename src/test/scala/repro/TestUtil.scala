package repro

import repro.core.{LabeledPoint, Points}

/** Shared helpers for the unit suites: deterministic random instances and a
  * brute-force FairDiv optimum for small n (exhaustive over per-color
  * combinations — WLOG an optimal solution takes exactly k_j per color,
  * since dropping points never decreases div).
  */
object TestUtil {

  def randomPoints(n: Int, d: Int, m: Int, seed: Long, span: Double = 100.0): Array[LabeledPoint] = {
    val rnd = new java.util.Random(seed)
    Array.tabulate(n) { i =>
      LabeledPoint(i.toLong, rnd.nextInt(m), Array.fill(d)(rnd.nextDouble() * span))
    }
  }

  /** Clustered points: `clusters` Gaussian blobs, colors skewed. */
  def clusteredPoints(n: Int, d: Int, m: Int, clusters: Int, seed: Long): Array[LabeledPoint] = {
    val rnd = new java.util.Random(seed)
    val centers = Array.fill(clusters, d)(rnd.nextDouble() * 100.0)
    Array.tabulate(n) { i =>
      val c = rnd.nextInt(clusters)
      val color = math.min(m - 1, (math.pow(rnd.nextDouble(), 2.0) * m).toInt)
      LabeledPoint(i.toLong, color, Array.tabulate(d)(j => centers(c)(j) + rnd.nextGaussian() * 3.0))
    }
  }

  /** Exhaustive FairDiv optimum; use only for tiny instances. Returns the
    * best achievable diversity (0 if only degenerate solutions exist),
    * or fails if infeasible.
    */
  def bruteForceOpt(pts: Array[LabeledPoint], k: Map[Int, Int]): Double = {
    val byColor = k.keys.toArray.sorted.map(c => pts.filter(_.color == c))
    val ks = k.keys.toArray.sorted.map(k)
    require(byColor.zip(ks).forall { case (g, kc) => g.length >= kc }, "infeasible brute-force instance")

    def combos(g: Array[LabeledPoint], kc: Int): Iterator[Seq[LabeledPoint]] =
      g.toSeq.combinations(kc)

    var best = 0.0
    def rec(ci: Int, acc: List[LabeledPoint]): Unit = {
      if (ci == byColor.length) best = math.max(best, Points.diversity(acc))
      else combos(byColor(ci), ks(ci)).foreach(c => rec(ci + 1, c.toList ::: acc))
    }
    rec(0, Nil)
    best
  }
}
