package repro.core

import repro.geo.KdTree
import java.util.Arrays
import scala.collection.mutable.ArrayBuffer

/** MFD — Multiplicative-weight-update method for Fair Diversification
  * (Algorithms 1–4 of the paper).
  *
  * Solves FairDiv approximately: binary-search-like sweep over candidate
  * diversities γ; for each γ the implicit LP (LP2) is solved with the MWU
  * method where the `n×n` constraint matrix `A` (`A[ℓ,i] = 1 ⇔ p_i ∈ S^ε_{p_ℓ}`)
  * is represented through canonical ball queries on a KD-tree; the fractional
  * solution is rounded by weighted sampling with subtree deactivation.
  *
  * Deviations follow the paper's own implementation (§6):
  *  - γ starts at the diversity of a colorblind Gonzalez(k) run and decays
  *    geometrically (×0.85) until the first feasible value, instead of a WSPD
  *    binary search;
  *  - the MWU loop runs `g·T` iterations (early stopping), `g = 0.3` default,
  *    `T = ⌈ε^{-2} k ln n⌉`;
  *  - a KD-tree stands in for the BBD-tree.
  *
  * Guarantees (Theorem 3.2): the returned set S has pairwise distance
  * ≥ γ/(2(1+ε)) by construction, and E[|S(c_j)|] ≥ k_j/(1+ε) when the MWU
  * converged (larger `g` → closer to the bound; Table 4 measures the
  * shortfall).
  */
object MFD {

  /** @param eps        approximation error ε of LP2 / the tree queries
    * @param g          early-stopping fraction of the theoretical iteration count
    * @param gammaDecay multiplicative step of the γ sweep
    * @param maxGammaSteps sweep length cap (always terminates: tiny γ is feasible)
    * @param seed       rounding/sampling seed
    * @param deadlineNanos absolute System.nanoTime deadline; DNF if exceeded
    */
  final case class Config(
      eps: Double = 0.5,
      g: Double = 0.3,
      gammaDecay: Double = 0.85,
      maxGammaSteps: Int = 120,
      seed: Long = 17L,
      deadlineNanos: Long = Long.MaxValue
  )

  /** Outcome of a run. `selected` satisfies div ≥ gamma/(2(1+eps)); fairness
    * holds in expectation (see `Points.missedPerColor` for the shortfall).
    */
  final case class Result(
      selected: Array[LabeledPoint],
      gamma: Double,
      diversity: Double,
      mwuIterations: Int,
      gammaSteps: Int
  )

  /** The MWU output for the first feasible γ of the sweep: the averaged
    * fractional x̂ plus the shared tree structures, so both rounding schemes
    * (expectation, Section 3.1; high-probability, Section 3.2) can consume
    * it.
    */
  private[core] final case class Fractional(
      tree: KdTree,
      paths: Array[Array[Int]],
      xhat: Array[Double],
      gamma: Double,
      mwuIterations: Int,
      gammaSteps: Int
  )

  private[core] sealed trait SweepOutcome
  private[core] final case class Solved(f: Fractional) extends SweepOutcome
  /** Degenerate geometry or exhausted sweep — `selected` is a valid fair set. */
  private[core] final case class Fallback(selected: Array[LabeledPoint], gamma: Double) extends SweepOutcome

  /** `k` clipped to what `pts` holds: colors absent from `pts` are dropped,
    * the others are capped at their point count. Callers whose input may
    * lack a color or hold fewer than `k_j` of it pass this to [[run]].
    */
  def attainable(pts: Array[LabeledPoint], k: Map[Int, Int]): Map[Int, Int] = {
    val counts = Points.colorCounts(pts.toSeq)
    k.flatMap { case (c, kc) => counts.get(c).map(n => c -> math.min(kc, n)) }
  }

  def run(pts: Array[LabeledPoint], k: Map[Int, Int], cfg: Config = Config()): Result = {
    sweep(pts, k, cfg) match {
      case Solved(f) =>
        val r = f.gamma / (2.0 * (1.0 + cfg.eps))
        val sel = round(pts, f.tree, f.paths, f.xhat, r, cfg.eps, cfg.seed)
        Result(sel, f.gamma, Points.diversity(sel.toSeq), f.mwuIterations, f.gammaSteps)
      case Fallback(sel, gamma) =>
        Result(sel, gamma, Points.diversity(sel.toSeq), 0, 0)
    }
  }

  /** Validate input, sweep γ geometrically, and return the first feasible
    * fractional solution (or a fair fallback on degenerate geometry).
    */
  private[core] def sweep(pts: Array[LabeledPoint], k: Map[Int, Int], cfg: Config): SweepOutcome = {
    val byColor = pts.groupBy(_.color)
    def ofColor(c: Int): Array[LabeledPoint] = byColor.getOrElse(c, Array.empty[LabeledPoint])
    k.foreach { case (c, kc) =>
      require(ofColor(c).length >= kc, s"infeasible input: color $c has ${ofColor(c).length} < k_j=$kc points")
    }
    val kTotal = k.values.sum
    require(kTotal >= 1, "k must be >= 1")

    val n = pts.length
    val tree = KdTree.build(pts)
    val paths: Array[Array[Int]] = Array.tabulate(n)(tree.pathToRoot)

    // Points of each constrained color, as indices into pts.
    val colorIdx: Map[Int, Array[Int]] =
      k.keys.map(c => c -> pts.indices.filter(pts(_).color == c).toArray).toMap

    var gamma = Gonzalez.diversityUpperBound(pts, math.max(2, kTotal))
    if (!java.lang.Double.isFinite(gamma) || gamma <= 0.0) {
      // Degenerate geometry (duplicates / singleton): any fair pick is optimal.
      val sel = k.toSeq.flatMap { case (c, kc) => ofColor(c).take(kc) }
      return Fallback(sel.toArray, 0.0)
    }

    val T = math.max(1, math.ceil(cfg.g * kTotal * math.log(math.max(2, n)) / (cfg.eps * cfg.eps)).toInt)

    var steps = 0
    while (steps < cfg.maxGammaSteps) {
      Deadline.check(cfg.deadlineNanos)
      solveGamma(pts, tree, paths, colorIdx, k, gamma, cfg, T) match {
        case Some(xhat) =>
          return Solved(Fractional(tree, paths, xhat, gamma, T, steps))
        case None =>
          gamma *= cfg.gammaDecay
          steps += 1
      }
    }
    // Sweep exhausted (numerically pathological input): fall back to a fair
    // but diversity-agnostic pick so callers always get a valid-fairness set.
    val sel = k.toSeq.flatMap { case (c, kc) => Gonzalez.centers(ofColor(c), kc) }
    Fallback(sel.toArray, gamma)
  }

  /** MWU solve of LP2 at diversity γ. Returns the averaged fractional x̂, or
    * None if some oracle call was infeasible.
    */
  private def solveGamma(
      pts: Array[LabeledPoint],
      tree: KdTree,
      paths: Array[Array[Int]],
      colorIdx: Map[Int, Array[Int]],
      k: Map[Int, Int],
      gamma: Double,
      cfg: Config,
      T: Int
  ): Option[Array[Double]] = {
    val n = pts.length
    val r = gamma / (2.0 * (1.0 + cfg.eps))
    // Canonical node lists are a function of (point, γ) only — precompute.
    val canon: Array[Array[Int]] =
      Array.tabulate(n)(i => tree.canonicalNodes(pts(i).x, r, cfg.eps))

    val h = Array.fill(n)(1.0 / n)
    val xhat = new Array[Double](n)
    val us = new Array[Double](tree.nodeCount) // node sums, reused per iteration
    val uw = new Array[Double](tree.nodeCount)
    val w = new Array[Double](n)
    val xbar = new Array[Boolean](n)

    var t = 0
    while (t < T) {
      if ((t & 63) == 0) Deadline.check(cfg.deadlineNanos)

      // ---- Oracle (Algorithm 2): w_i = (h^T A)_i via node sums + root paths.
      Arrays.fill(us, 0.0)
      var l = 0
      while (l < n) {
        val cs = canon(l); var j = 0
        while (j < cs.length) { us(cs(j)) += h(l); j += 1 }
        l += 1
      }
      var i = 0
      while (i < n) {
        var s = 0.0
        val path = paths(i); var j = 0
        while (j < path.length) { s += us(path(j)); j += 1 }
        w(i) = s
        i += 1
      }
      // Pick the k_j cheapest points of each color; total cost must be ≤ 1.
      Arrays.fill(xbar, false)
      var cost = 0.0
      colorIdx.foreach { case (c, idxs) =>
        val kc = k(c)
        val chosen = kSmallest(idxs, w, kc)
        var j = 0
        while (j < chosen.length) { xbar(chosen(j)) = true; cost += w(chosen(j)); j += 1 }
      }
      if (cost > 1.0 + 1e-9) return None // oracle infeasible ⇒ γ infeasible

      i = 0
      while (i < n) { if (xbar(i)) xhat(i) += 1.0; i += 1 }

      // ---- Update (Algorithm 3): R_ℓ = (A x̄)_ℓ via reversed tree pass.
      Arrays.fill(uw, 0.0)
      i = 0
      while (i < n) {
        if (xbar(i)) {
          val path = paths(i); var j = 0
          while (j < path.length) { uw(path(j)) += 1.0; j += 1 }
        }
        i += 1
      }
      var hSum = 0.0
      l = 0
      while (l < n) {
        var rSum = 0.0
        val cs = canon(l); var j = 0
        while (j < cs.length) { rSum += uw(cs(j)); j += 1 }
        val delta = (rSum - 1.0) / k.values.sum
        h(l) *= (1.0 + delta * cfg.eps / 4.0)
        hSum += h(l)
        l += 1
      }
      l = 0
      while (l < n) { h(l) /= hSum; l += 1 }

      t += 1
    }
    var i = 0
    while (i < n) { xhat(i) /= T; i += 1 }
    Some(xhat)
  }

  /** Randomized rounding (Algorithm 4): sample points proportional to x̂ with
    * removal (subtree-sum sampling tree); a sampled point joins S iff no
    * previously *sampled* point lies in its canonical ε-neighborhood — the
    * root path of every sampled point is deactivated, matching the paper's
    * worked example and making Lemma 3.1's fairness argument exact.
    */
  private[core] def round(
      pts: Array[LabeledPoint],
      tree: KdTree,
      paths: Array[Array[Int]],
      xhat: Array[Double],
      r: Double,
      eps: Double,
      seed: Long
  ): Array[LabeledPoint] = {
    val n = pts.length
    val canon: Array[Array[Int]] =
      Array.tabulate(n)(i => tree.canonicalNodes(pts(i).x, r, eps))

    // Subtree sums bottom-up: children were created after parents, so a
    // reverse id scan sees children before parents.
    val s = new Array[Double](tree.nodeCount)
    var u = tree.nodeCount - 1
    while (u >= 0) {
      s(u) =
        if (tree.isLeaf(u)) math.max(0.0, xhat(tree.leafPoint(u)))
        else s(tree.left(u)) + s(tree.right(u))
      u -= 1
    }
    val active = Array.fill(tree.nodeCount)(true)
    val rnd = new java.util.Random(seed)
    val out = new ArrayBuffer[LabeledPoint]()

    while (s(tree.root) > 1e-12) {
      // Weighted descent.
      var v = tree.root
      while (!tree.isLeaf(v)) {
        val ls = math.max(0.0, s(tree.left(v)))
        val rs = math.max(0.0, s(tree.right(v)))
        v = if (rnd.nextDouble() * (ls + rs) < ls) tree.left(v) else tree.right(v)
      }
      val i = tree.leafPoint(v)
      // Remove i from the sampling pool.
      val wi = s(v)
      val path = paths(i); var j = 0
      while (j < path.length) { s(path(j)) -= wi; j += 1 }
      s(v) = 0.0
      // Accept iff the whole ε-neighborhood is untouched.
      val cs = canon(i)
      var ok = true
      j = 0
      while (j < cs.length && ok) { ok = active(cs(j)); j += 1 }
      if (ok) out += pts(i)
      // Deactivate the sampled point's root path regardless of acceptance.
      j = 0
      while (j < path.length) { active(path(j)) = false; j += 1 }
    }
    out.toArray
  }

  /** Indices of the `kc` smallest weights among `idxs` (ties broken by index). */
  private def kSmallest(idxs: Array[Int], w: Array[Double], kc: Int): Array[Int] = {
    if (kc >= idxs.length) idxs
    else if (kc <= 0) Array.empty
    else {
      // Max-heap of size kc over (weight, idx).
      val heap = new java.util.PriorityQueue[Int](kc,
        (a: Int, b: Int) => {
          val c = java.lang.Double.compare(w(b), w(a))
          if (c != 0) c else Integer.compare(b, a)
        })
      var i = 0
      while (i < idxs.length) {
        val x = idxs(i)
        if (heap.size < kc) heap.add(x)
        else {
          val top = heap.peek()
          if (w(x) < w(top) || (w(x) == w(top) && x < top)) { heap.poll(); heap.add(x) }
        }
        i += 1
      }
      val out = new Array[Int](heap.size)
      var j = 0
      while (!heap.isEmpty) { out(j) = heap.poll(); j += 1 }
      out
    }
  }
}
