package repro.core

import repro.geo.KdTree

/** MFD with high-probability fairness (Section 3.2 / Theorem 3.3).
  *
  * The expectation-fair fractional solution x̂ from the MWU sweep is
  * transformed into ŷ satisfying the support-separation constraints
  * (14)–(17): per color, a weighted KD-tree over `P(c_j)` aggregates the x̂
  * mass of each γ/(3(1+ε)²)-neighborhood onto a single representative
  * (canonical nodes are drained onto the representative and deactivated),
  * so any two ŷ-positive points of the same color are ≥ γ/(3(1+ε)²) apart
  * while the per-color mass — hence fairness — is preserved. ŷ is then
  * rounded at radius γ/(6(1+ε)³); because the per-color indicators are
  * independent, a Chernoff bound applies, and repeating the rounding
  * ⌈log₂(1/δ)⌉ times yields |S(c_j)| ≥ (1-ε)·k_j/(1+ε) for every color with
  * probability ≥ 1-δ. Diversity drops to ≥ γ/(6(1+ε)³) — the 1/6 factor of
  * Theorem 3.3.
  */
object MFDHighProb {

  /** @param delta failure probability bound for the fairness constraints */
  final case class Result(
      selected: Array[LabeledPoint],
      gamma: Double,
      diversity: Double,
      roundingAttempts: Int,
      fairnessAchieved: Boolean
  )

  def run(pts: Array[LabeledPoint], k: Map[Int, Int],
          cfg: MFD.Config = MFD.Config(), delta: Double = 0.1): Result = {
    MFD.sweep(pts, k, cfg) match {
      case MFD.Fallback(sel, gamma) =>
        Result(sel, gamma, Points.diversity(sel.toSeq), 0, Points.isFair(sel.toSeq, k))
      case MFD.Solved(f) =>
        val yhat = transform(pts, f.xhat, f.gamma, cfg.eps)
        val rRound = f.gamma / (6.0 * math.pow(1.0 + cfg.eps, 3))
        val canon = MFD.canonicalLists(pts, f.tree, rRound, cfg.eps)
        val attempts = math.max(1, math.ceil(math.log(1.0 / delta) / math.log(2.0)).toInt)
        val target: Map[Int, Double] = k.map { case (c, kc) => c -> (1 - cfg.eps) * kc / (1 + cfg.eps) }
        var best: Array[LabeledPoint] = null
        var bestScore = -1.0
        var a = 0
        var achieved = false
        while (a < attempts && !achieved) {
          Deadline.check(cfg.deadlineNanos)
          val sel = MFD.round(pts, f.tree, canon, yhat, cfg.seed + 1000L * (a + 1))
          val counts = Points.colorCounts(sel.toSeq)
          val score = k.keys.map(c => counts.getOrElse(c, 0) / math.max(1e-9, target(c))).min
          if (score > bestScore) { bestScore = score; best = sel }
          if (score >= 1.0 - 1e-9) achieved = true
          a += 1
        }
        Result(best, f.gamma, Points.diversity(best.toSeq), a, achieved)
    }
  }

  /** The x̂ → ŷ transform. For each color: process points with positive x̂
    * and no deactivated ancestor; ŷ_i absorbs the remaining x̂ mass of the
    * canonical nodes of `B(p_i, γ/(3(1+ε)²))` within the color, and those
    * nodes are deactivated (subtree mass drained to zero).
    */
  private[core] def transform(pts: Array[LabeledPoint], xhat: Array[Double],
                              gamma: Double, eps: Double): Array[Double] = {
    val n = pts.length
    val yhat = new Array[Double](n)
    val rAgg = gamma / (3.0 * (1.0 + eps) * (1.0 + eps))
    pts.indices.groupBy(pts(_).color).foreach { case (_, idxSeq) =>
      val idx = idxSeq.toArray
      val sub = idx.map(pts)
      val tree = KdTree.build(sub)
      // Subtree sums of x̂ ≥ 0 restricted to this color.
      val s = new Array[Double](tree.nodeCount)
      tree.subtreeSums(idx.map(xhat), s)
      val dead = new Array[Boolean](tree.nodeCount)
      var li = 0
      while (li < sub.length) {
        val localI = li
        val globalI = idx(localI)
        if (xhat(globalI) > 0) {
          // Skip if any ancestor (including the leaf) was deactivated.
          val path = tree.pathToRoot(localI)
          var blocked = false
          var j = 0
          while (j < path.length && !blocked) { blocked = dead(path(j)); j += 1 }
          if (!blocked) {
            val nodes = tree.canonicalNodes(sub(localI).x, rAgg, eps)
            var mass = 0.0
            j = 0
            while (j < nodes.length) {
              val v = nodes(j)
              if (!dead(v) && s(v) > 0) {
                val mv = s(v)
                mass += mv
                // Drain v: subtract its mass from every strict ancestor and
                // zero its whole subtree so no later query re-absorbs it.
                var p = tree.parent(v)
                while (p != -1) { s(p) -= mv; p = tree.parent(p) }
                zeroSubtree(tree, s, v)
                dead(v) = true
              }
              j += 1
            }
            yhat(globalI) = mass
          }
        }
        li += 1
      }
    }
    yhat
  }

  private def zeroSubtree(tree: KdTree, s: Array[Double], v: Int): Unit = {
    if (s(v) != 0.0 || tree.isLeaf(v)) {
      s(v) = 0.0
      if (!tree.isLeaf(v)) { zeroSubtree(tree, s, tree.left(v)); zeroSubtree(tree, s, tree.right(v)) }
    }
  }
}
