package repro.baselines

import repro.core.{Coreset, Deadline, Gonzalez, Instance, LabeledPoint, Points, Sweep}
import scala.collection.mutable.ArrayBuffer

/** SFDM-2 baseline (Wang, Fabbri, Mathioudakis, ICDE 2022 [50]) — the
  * streaming fair-diversity algorithm; approximation `(1-ε)/(3m+2)`.
  *
  * A geometric grid of diversity guesses μ ∈ {d_min·(1+ε)^i} ≤ d_max, plus
  * μ = 0, is maintained; for every level the stream phase keeps
  *  - a global greedy set (add p iff ≥ μ from all kept, cap k), and
  *  - one greedy set per color (same rule within the color, cap k),
  * for O(mk·log_{1+ε}Δ) stored points and O(k·log_{1+ε}Δ) update time —
  * which is why ε=0.15 (many levels) is slow/high-quality and ε=0.75 is
  * fast/low-quality, the trade-off the paper's Figures 5–8 show.
  *
  * Post-processing scans levels from the largest μ: the global set seeds the
  * selection; deficient colors are augmented from their per-color sets at
  * separation (1-ε)·μ/(3m+2), following [50]'s guarantee structure.
  *
  * Following the paper's footnote 5, the offline wrapper derives d_max from
  * the same colorblind Gonzalez bound MFD uses and d_min from the minimum
  * non-zero pairwise distance of the m·k coreset.
  */
final class SFDM2(k: Map[Int, Int], eps: Double, dMin: Double, dMax: Double) {
  private val kTotal = Instance.checkK(k)

  /** One μ level: global and per-color greedy cores. */
  private final class Level(val mu: Double) {
    val global = new ArrayBuffer[LabeledPoint]()
    val perColor = scala.collection.mutable.Map[Int, ArrayBuffer[LabeledPoint]]()

    private def farFromAll(p: LabeledPoint, s: ArrayBuffer[LabeledPoint]): Boolean = {
      var i = 0
      while (i < s.length) {
        if (Points.distSq(p.x, s(i).x) < mu * mu) return false
        i += 1
      }
      true
    }

    def insert(p: LabeledPoint): Unit = {
      if (global.length < kTotal && farFromAll(p, global)) global += p
      val pc = perColor.getOrElseUpdate(p.color, new ArrayBuffer[LabeledPoint]())
      if (pc.length < kTotal && farFromAll(p, pc)) pc += p
    }
  }

  private val levels: Array[Level] = {
    // μ = 0 keeps the first k points of every color, duplicates included: the
    // fair level when every μ ≥ d_min rejects points a color needs.
    val buf = ArrayBuffer(new Level(0.0))
    var mu = math.max(dMin, 1e-12)
    var i = 0
    while (mu <= dMax * (1 + eps) && i < 400) { buf += new Level(mu); mu *= (1 + eps); i += 1 }
    buf.toArray
  }

  /** Total stored points across all levels (the paper's memory metric). */
  def storedCount: Int =
    levels.map(l => l.global.length + l.perColor.valuesIterator.map(_.length).sum).sum

  def insert(p: LabeledPoint): Unit = {
    var i = 0
    while (i < levels.length) { levels(i).insert(p); i += 1 }
  }

  /** Post-processing: build a candidate solution at every μ level (global
    * set seeds, per-color augmentation at the relaxed separation) and return
    * the feasible candidate with the best *actual* diversity — the level
    * whose μ tracks the optimum wins, matching [50]'s behaviour of scanning
    * the guess grid for the best feasible guess.
    */
  def postProcess(deadlineNanos: Long = Deadline.None): Array[LabeledPoint] = {
    val m = k.size
    var best: Array[LabeledPoint] = null
    var bestDiv = -1.0
    var li = levels.length - 1
    while (li >= 0) {
      Deadline.check(deadlineNanos)
      val lvl = levels(li)
      val sel = new ArrayBuffer[LabeledPoint]()
      val count = scala.collection.mutable.Map[Int, Int]().withDefaultValue(0)
      // Seed from the global μ-separated set.
      lvl.global.foreach { p =>
        if (k.contains(p.color) && count(p.color) < k(p.color)) {
          sel += p; count(p.color) += 1
        }
      }
      // Augment deficient colors at the relaxed separation.
      val muAug = (1 - eps) * lvl.mu / (3.0 * m + 2.0)
      var ok = true
      k.foreach { case (c, kc) =>
        val pc = lvl.perColor.getOrElse(c, new ArrayBuffer[LabeledPoint]())
        var i = 0
        while (count(c) < kc && i < pc.length) {
          val q = pc(i)
          if (!sel.exists(s => s.id == q.id || Points.distSq(s.x, q.x) < muAug * muAug)) { sel += q; count(c) += 1 }
          i += 1
        }
        if (count(c) < kc) ok = false
      }
      if (ok) {
        val div = Points.diversity(sel.toSeq)
        if (div > bestDiv) { bestDiv = div; best = sel.toArray }
      }
      li -= 1
    }
    if (best != null) return best
    // No level satisfied fairness (color scarcer than k_j in the stream):
    // return the fair fallback over the μ = 0 level's per-color sets.
    Sweep.fallback(levels(0).perColor.valuesIterator.flatten.toArray, k)
  }
}

object SFDM2 {

  /** Offline wrapper: derive [d_min, d_max], stream every point, post-process. */
  def select(pts: Array[LabeledPoint], k: Map[Int, Int], eps: Double,
             deadlineNanos: Long = Deadline.None): Array[LabeledPoint] = {
    val algo = create(pts, k, eps)
    var i = 0
    while (i < pts.length) {
      if ((i & 1023) == 0) Deadline.check(deadlineNanos)
      algo.insert(pts(i))
      i += 1
    }
    algo.postProcess(deadlineNanos)
  }

  /** Build an SFDM-2 instance with bounds estimated per footnote 5. */
  def create(pts: Array[LabeledPoint], k: Map[Int, Int], eps: Double): SFDM2 = {
    val kTotal = new Instance(pts, k).kTotal
    val coreset = Coreset.local(pts, kTotal)
    val dMax = Gonzalez.diversityUpperBound(pts, kTotal)
    var dMin = Double.PositiveInfinity
    var i = 0
    while (i < coreset.length) {
      var j = i + 1
      while (j < coreset.length) {
        val d = Points.distSq(coreset(i).x, coreset(j).x)
        if (d > 0 && d < dMin) dMin = d
        j += 1
      }
      i += 1
    }
    val lo = if (java.lang.Double.isFinite(dMin)) math.sqrt(dMin) else 1e-6
    new SFDM2(k, eps, lo, dMax)
  }
}
