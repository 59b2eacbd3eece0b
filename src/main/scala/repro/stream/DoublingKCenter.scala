package repro.stream

import repro.core.{LabeledPoint, Points}
import scala.collection.mutable.ArrayBuffer

/** Streaming k-center via the doubling algorithm (Charikar, Chekuri, Feder,
  * Motwani [23]) — the `Alg` plugged into the generic coreset construction
  * (Theorem 4.2) to obtain StreamMFD (Theorem 5.1).
  *
  * Invariants maintained over the stream:
  *  - at most `k` centers are stored, pairwise > 2τ apart;
  *  - every point seen so far is within 2τ·Σ 2^{-i} ≤ 4τ of some current
  *    center, and τ ≤ 2·OPT_k (k+1 points pairwise > 2τ force OPT > τ) —
  *    a constant-factor k-center solution, which is all Theorem 4.2 needs.
  *
  * Update is O(k) per element (a linear scan over ≤ k centers; the paper's
  * O(k log k) uses a dynamic closest-pair structure on top).
  */
final class DoublingKCenter(k: Int) {
  require(k >= 1)
  private val cs = new ArrayBuffer[LabeledPoint]()
  private var tau = 0.0
  private var count = 0L

  def centers: Array[LabeledPoint] = cs.toArray
  def threshold: Double = tau
  def seen: Long = count

  def insert(p: LabeledPoint): Unit = {
    count += 1
    // Bootstrap phase: accept the first k points unconditionally. Once τ is
    // set, even a sub-capacity center set only admits points > 2τ away
    // (otherwise the pairwise-separation invariant breaks).
    if (tau == 0.0 && cs.length < k) { cs += p; return }
    if (tau == 0.0) {
      // First overflow: initialise τ from the smallest pairwise distance.
      tau = Points.diversity((cs :+ p).toSeq) / 2.0
      if (tau == 0.0) tau = 1e-12
    }
    // Covered within 2τ ⇒ drop.
    var minD = Double.PositiveInfinity
    var i = 0
    while (i < cs.length) {
      val d = Points.distSq(cs(i).x, p.x)
      if (d < minD) minD = d
      i += 1
    }
    if (minD <= 4.0 * tau * tau) return
    cs += p
    // Restructure while over capacity: double τ and thin to pairwise > 2τ.
    while (cs.length > k) {
      tau *= 2.0
      val old = cs.toArray
      cs.clear()
      var j = 0
      while (j < old.length) {
        var keep = true
        var c = 0
        while (c < cs.length && keep) {
          if (Points.distSq(cs(c).x, old(j).x) <= 4.0 * tau * tau) keep = false
          c += 1
        }
        if (keep) cs += old(j)
        j += 1
      }
    }
  }
}
