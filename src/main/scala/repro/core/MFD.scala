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
  *  - the MWU loop runs at most `g·T` iterations (early stopping), `g = 0.3`
  *    default, `T = ⌈ε^{-2} k ln n⌉`;
  *  - a KD-tree stands in for the BBD-tree.
  *
  * One deviation of ours: the MWU loop stops early at the first oracle pick
  * `x̄_t` that is itself an integral point of LP2 (`max_ℓ (A x̄_t)_ℓ ≤ 1`),
  * and rounds that pick instead of the average. `Config.paper` turns this
  * off and runs the paper's fixed `g·T` count.
  *
  * Guarantees (Theorem 3.2): the returned set S has pairwise distance
  * ≥ γ/(2(1+ε)) by construction. When the loop stopped on an integral pick
  * (`mwuIterations` below `g·T`), S is that pick: exactly `k_j` points of
  * each color, pairwise more than γ/(2(1+ε)) apart, whatever the rounding
  * seed. Otherwise E[|S(c_j)|] ≥ k_j/(1+ε) when the MWU converged (larger
  * `g` → closer to the bound; Table 4 measures the shortfall).
  */
object MFD {

  /** Multiplicative step of the γ sweep. */
  private val GammaDecay = 0.85
  /** Sweep length cap; an exhausted sweep returns the fallback. */
  private val MaxGammaSteps = 120

  /** @param eps        approximation error ε of LP2 / the tree queries
    * @param g          early-stopping fraction of the theoretical iteration count
    * @param seed       rounding/sampling seed
    * @param deadlineNanos absolute System.nanoTime deadline; DNF if exceeded
    * @param paper      run the paper's fixed `g·T` iterations: no stop on an
    *                   integral pick (Table 4, Fig. 3/4)
    */
  final case class Config(
      eps: Double = 0.5,
      g: Double = 0.3,
      seed: Long = 17L,
      deadlineNanos: Long = Long.MaxValue,
      paper: Boolean = false
  )

  /** Outcome of a run. `selected` satisfies div ≥ gamma/(2(1+eps)).
    * `mwuIterations` counts the iterations the solve of the accepted γ ran:
    * below the cap `g·T`, it stopped on an integral pick and `selected` holds
    * exactly `k_j` points of each color; at the cap, fairness holds in
    * expectation (see `Points.missedPerColor` for the shortfall). When no γ
    * is accepted, `selected` is [[Sweep.fallback]] with `gamma = 0`,
    * `mwuIterations = 0` and `gammaSteps` 0 when the start `d_G` is 0
    * (`Σk_j = 1`, so `diversity` is 0, or too few distinct locations) or 120
    * when every γ of the sweep failed.
    */
  final case class Result(
      selected: Array[LabeledPoint],
      gamma: Double,
      diversity: Double,
      mwuIterations: Int,
      gammaSteps: Int
  )

  /** `k` clipped to what `pts` holds: colors absent from `pts` are dropped,
    * the others are capped at their point count. Callers whose input may
    * lack a color or hold fewer than `k_j` of it pass this to [[run]].
    */
  def attainable(pts: Array[LabeledPoint], k: Map[Int, Int]): Map[Int, Int] = {
    val counts = Points.colorCounts(pts.toSeq)
    k.flatMap { case (c, kc) => counts.get(c).map(n => c -> math.min(kc, n)) }
  }

  /** Validate, sweep γ down from the colorblind Gonzalez diversity, and
    * round the MWU solution of the first feasible γ.
    */
  def run(pts: Array[LabeledPoint], k: Map[Int, Int], cfg: Config = Config()): Result = {
    // Per constrained color: its points as indices into pts, and its k_j.
    val colors = k.keys.toArray
    val colorIdx: Array[Array[Int]] = colors.map(c => pts.indices.filter(pts(_).color == c).toArray)
    val kOf: Array[Int] = colors.map(k)
    colors.indices.foreach { j =>
      require(colorIdx(j).length >= kOf(j),
        s"infeasible input: color ${colors(j)} has ${colorIdx(j).length} < k_j=${kOf(j)} points")
    }
    val kTotal = kOf.sum
    require(kTotal >= 1, "k must be >= 1")

    // Fair but diversity-agnostic pick. γ = 0 keeps the contract
    // div ≥ γ/(2(1+ε)) whatever the pick's diversity.
    def fallback(steps: Int): Result = {
      val sel = Sweep.fallback(pts, k)
      Result(sel, 0.0, Points.diversity(sel.toSeq), 0, steps)
    }

    val start = Gonzalez.diversityUpperBound(pts, kTotal)
    // Σk_j = 1, or fewer than Σk_j distinct locations (start 0): every fair
    // set has diversity 0. The sweep rejects the same starts; this skips the
    // tree build.
    if (!java.lang.Double.isFinite(start) || start <= 0) return fallback(0)

    val n = pts.length
    val tree = KdTree.build(pts)
    val T = math.max(1, math.ceil(cfg.g * kTotal * math.log(math.max(2, n)) / (cfg.eps * cfg.eps)).toInt)

    Sweep.geometric(start, GammaDecay, MaxGammaSteps, cfg.deadlineNanos) { gamma =>
      // Canonical node lists are a function of (point, γ) only; rounding
      // reuses them at the same radius.
      val r = gamma / (2.0 * (1.0 + cfg.eps))
      val canon = Array.tabulate(n)(i => tree.canonicalNodes(pts(i).x, r, cfg.eps))
      solveGamma(tree, canon, colorIdx, kOf, kTotal, cfg, T).map { case (xhat, iters) =>
        (round(pts, tree, canon, xhat, cfg.seed), iters)
      }
    } match {
      case Some(Sweep.Accepted((sel, iters), gamma, steps)) =>
        Result(sel, gamma, Points.diversity(sel.toSeq), iters, steps)
      case None => fallback(MaxGammaSteps) // sweep exhausted (numerically pathological input)
    }
  }

  /** MWU solve of LP2 at the diversity γ whose canonical lists are `canon`.
    * Returns x̂ and the iterations run, or None if some oracle call was
    * infeasible. x̂ is the first oracle pick x̄_t with `max_ℓ (A x̄_t)_ℓ ≤ 1`
    * (unless `cfg.paper`), else the average of the `T` picks. One iteration
    * costs O(nodes + Σ|canon|) and allocates nothing.
    *
    * Rounding an integral pick returns exactly the pick: `canon(i)` holds
    * `p_i`, so `R_i ≤ 1` means no other picked point lies under `canon(i)`,
    * and Round rejects `i` only when an earlier sampled point does.
    */
  private def solveGamma(
      tree: KdTree,
      canon: Array[Array[Int]],
      colorIdx: Array[Array[Int]],
      kOf: Array[Int],
      kTotal: Int,
      cfg: Config,
      T: Int
  ): Option[(Array[Double], Int)] = {
    val n = canon.length
    val h = Array.fill(n)(1.0 / n)
    val xhat = new Array[Double](n)
    val us = new Array[Double](tree.nodeCount) // node sums, reused per iteration
    val acc = new Array[Double](tree.nodeCount) // root-path sums (Oracle) / subtree counts (Update)
    val w = new Array[Double](n)
    val xbar = new Array[Double](n) // 0/1 indicator of the oracle's pick
    val pick = new Array[Int](colorIdx.map(_.length).max)

    var t = 0
    while (t < T) {
      if ((t & 63) == 0) Deadline.check(cfg.deadlineNanos)

      // ---- Oracle (Algorithm 2): w_i = (h^T A)_i = Σ of the node sums on
      // the root path of p_i, via one top-down pass.
      Arrays.fill(us, 0.0)
      var l = 0
      while (l < n) {
        val cs = canon(l); var j = 0
        while (j < cs.length) { us(cs(j)) += h(l); j += 1 }
        l += 1
      }
      tree.rootPathSums(us, acc)
      var i = 0
      while (i < n) { w(i) = acc(tree.leafOf(i)); i += 1 }
      // Pick the k_j cheapest points of each color; total cost must be ≤ 1.
      Arrays.fill(xbar, 0.0)
      var cost = 0.0
      var c = 0
      while (c < colorIdx.length) {
        val m = selectCheapest(colorIdx(c), w, kOf(c), pick)
        var j = 0
        while (j < m) { xbar(pick(j)) = 1.0; cost += w(pick(j)); j += 1 }
        c += 1
      }
      if (cost > 1.0 + 1e-9) return None // oracle infeasible ⇒ γ infeasible

      i = 0
      while (i < n) { xhat(i) += xbar(i); i += 1 }

      // ---- Update (Algorithm 3): R_ℓ = (A x̄)_ℓ = Σ over canon(ℓ) of the
      // picked points under each node, counted by one bottom-up pass.
      // R_ℓ sums 0/1 counts, so it is an exact integer.
      tree.subtreeSums(xbar, acc)
      var hSum = 0.0
      var maxR = 0.0
      l = 0
      while (l < n) {
        var rSum = 0.0
        val cs = canon(l); var j = 0
        while (j < cs.length) { rSum += acc(cs(j)); j += 1 }
        if (rSum > maxR) maxR = rSum
        val delta = (rSum - 1.0) / kTotal
        h(l) *= (1.0 + delta * cfg.eps / 4.0)
        hSum += h(l)
        l += 1
      }
      if (!cfg.paper && maxR <= 1.0) return Some((xbar, t + 1)) // integral LP2 point
      l = 0
      while (l < n) { h(l) /= hSum; l += 1 }

      t += 1
    }
    var i = 0
    while (i < n) { xhat(i) /= T; i += 1 }
    Some((xhat, T))
  }

  /** Randomized rounding (Algorithm 4): sample points proportional to x̂ ≥ 0
    * with removal (subtree-sum sampling tree); a sampled point joins S iff
    * no previously *sampled* point lies in its canonical ε-neighborhood
    * `canon(i)` — the root path of every sampled point is deactivated,
    * matching the paper's worked example and making Lemma 3.1's fairness
    * argument exact.
    */
  private def round(
      pts: Array[LabeledPoint],
      tree: KdTree,
      canon: Array[Array[Int]],
      xhat: Array[Double],
      seed: Long
  ): Array[LabeledPoint] = {
    val s = new Array[Double](tree.nodeCount)
    tree.subtreeSums(xhat, s)
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
      var u = v
      while (u != -1) { s(u) -= wi; u = tree.parent(u) }
      s(v) = 0.0
      // Accept iff the whole ε-neighborhood is untouched.
      val cs = canon(i)
      var ok = true
      var j = 0
      while (j < cs.length && ok) { ok = active(cs(j)); j += 1 }
      if (ok) out += pts(i)
      // Deactivate the sampled point's root path regardless of acceptance.
      u = v
      while (u != -1) { active(u) = false; u = tree.parent(u) }
    }
    out.toArray
  }

  /** Moves the `kc` smallest of `idxs` by `(w(i), i)` — ties broken by
    * index — into `pick(0 until m)` and returns `m = min(max(kc, 0),
    * |idxs|)`, in place (quickselect) with no allocation. `pick` must hold
    * at least `|idxs|` entries; the order within the first `m` is unspecified.
    */
  private[core] def selectCheapest(idxs: Array[Int], w: Array[Double], kc: Int, pick: Array[Int]): Int = {
    val len = idxs.length
    if (kc <= 0) return 0
    System.arraycopy(idxs, 0, pick, 0, len)
    if (kc >= len) return len
    // (w, index) keys are distinct, so Hoare partitioning needs no equal run.
    val target = kc - 1
    var lo = 0; var hi = len - 1
    while (lo < hi) {
      val p = pick((lo + hi) >>> 1); val wp = w(p)
      var a = lo; var b = hi
      while (a <= b) {
        while (w(pick(a)) < wp || (w(pick(a)) == wp && pick(a) < p)) a += 1
        while (wp < w(pick(b)) || (wp == w(pick(b)) && p < pick(b))) b -= 1
        if (a <= b) { val x = pick(a); pick(a) = pick(b); pick(b) = x; a += 1; b -= 1 }
      }
      // Now pick[lo..b] < pick[a..hi], and any slot strictly between holds p.
      if (target <= b) hi = b
      else if (target >= a) lo = a
      else return kc
    }
    kc
  }
}
