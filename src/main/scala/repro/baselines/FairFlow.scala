package repro.baselines

import repro.core.{Coreset, Deadline, Gonzalez, Instance, LabeledPoint, Points, Sweep}

/** FairFlow baseline (Moumoulidou, McGregor, Meliou, ICDT 2021 [41]) —
  * `1/(3m-1)`-approximation, the "fast but low diversity" end of the
  * paper's Figure 9 pareto plot.
  *
  * Structure (as re-implemented in [52], which the paper benchmarks):
  *  1. per-color Gonzalez candidates (the same m·k coreset every offline
  *     baseline in §6 consumes);
  *  2. a colorblind Gonzalez(k) run fixes the distance scale d; the cluster
  *     separation starts at d/(3m-1);
  *  3. candidates are greedily clustered at that separation and a
  *     source → color(cap k_j) → cluster(cap 1) → sink max-flow assigns one
  *     color to each cluster;
  *  4. if the flow is < k the separation decays (×0.85, ≤ 200 steps of
  *     [[Sweep.geometric]], else [[Sweep.fallback]]) until feasible — at
  *     tiny separation every candidate is its own cluster.
  */
object FairFlow {

  def select(pts: Array[LabeledPoint], k: Map[Int, Int],
             deadlineNanos: Long = Deadline.None): Array[LabeledPoint] = {
    val kTotal = new Instance(pts, k).kTotal
    val cand = Coreset.local(pts, kTotal)
    val d = Gonzalez.diversityUpperBound(pts, kTotal)
    Sweep.geometric(d / (3.0 * k.size - 1.0), 0.85, 200, deadlineNanos)(sep => trySeparation(cand, k, sep))
      .fold(Sweep.fallback(cand, k))(_.result)
  }

  private def trySeparation(cand: Array[LabeledPoint], k: Map[Int, Int],
                            sep: Double): Option[Array[LabeledPoint]] = {
    // Greedy clustering: a candidate starts a new cluster iff it is ≥ sep
    // from every existing cluster center; otherwise it joins the nearest.
    val centers = new scala.collection.mutable.ArrayBuffer[Int]()
    val assign = new Array[Int](cand.length)
    var i = 0
    while (i < cand.length) {
      var best = -1; var bestD = Double.PositiveInfinity
      var c = 0
      while (c < centers.length) {
        val dd = Points.distSq(cand(i).x, cand(centers(c)).x)
        if (dd < bestD) { bestD = dd; best = c }
        c += 1
      }
      if (best < 0 || bestD >= sep * sep) { centers += i; assign(i) = centers.length - 1 }
      else assign(i) = best
      i += 1
    }
    GroupFlow.onePerGroup(cand, k, assign, centers.length)
  }
}
