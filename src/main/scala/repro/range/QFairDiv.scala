package repro.range

import repro.core.{Coreset, LabeledPoint, MFD}
import scala.collection.mutable.ArrayBuffer

/** QFairDiv range structure (Theorem 5.2): preprocess `P` so that, given a
  * query rectangle `R` and per-color bounds `k_j`, a FairDiv solution over
  * `P ∩ R` is returned without scanning `P`.
  *
  * The theoretical construction uses the range-k-center structures of
  * [6, 44]; we realise the same contract with a bucketed KD-tree where each
  * node stores a per-color Gonzalez(kMax) sample of its subtree. A query
  * decomposes `R` into O(log n) canonical nodes plus boundary leaves; the
  * union of canonical samples and filtered boundary points is a
  * constant-factor per-color k-center solution of `P ∩ R` (k-center
  * composability), i.e. a FairDiv coreset for the range — MFD finishes the
  * job. Query cost is polylogarithmic in n for fixed k, m.
  *
  * @param kMax largest per-query k supported by the samples
  */
final class QFairDiv(pts: Array[LabeledPoint], kMax: Int) {
  require(pts.nonEmpty)
  private val dim = pts(0).x.length
  private val bucket = math.max(4 * kMax, 64)

  private final class Node(
      val lo: Array[Double], val hi: Array[Double],
      val points: Array[LabeledPoint],          // leaf payload (null for internal)
      val left: Node, val right: Node,
      val samples: Array[LabeledPoint]           // per-color Gonzalez sample
  )

  private val root: Node = build(pts)

  private def build(ps: Array[LabeledPoint]): Node = {
    val lo = Array.fill(dim)(Double.PositiveInfinity)
    val hi = Array.fill(dim)(Double.NegativeInfinity)
    ps.foreach { p =>
      var j = 0
      while (j < dim) {
        if (p.x(j) < lo(j)) lo(j) = p.x(j)
        if (p.x(j) > hi(j)) hi(j) = p.x(j)
        j += 1
      }
    }
    if (ps.length <= bucket) {
      new Node(lo, hi, ps, null, null, Coreset.local(ps, kMax))
    } else {
      var sd = 0; var w = -1.0
      var j = 0
      while (j < dim) { if (hi(j) - lo(j) > w) { w = hi(j) - lo(j); sd = j }; j += 1 }
      val sorted = ps.sortBy(_.x(sd))
      val mid = sorted.length / 2
      val l = build(sorted.take(mid))
      val r = build(sorted.drop(mid))
      // Merge children samples with a second Gonzalez pass (composability).
      new Node(lo, hi, null, l, r, Coreset.local(l.samples ++ r.samples, kMax))
    }
  }

  private def boxInside(n: Node, qlo: Array[Double], qhi: Array[Double]): Boolean = {
    var j = 0
    while (j < dim) {
      if (n.lo(j) < qlo(j) || n.hi(j) > qhi(j)) return false
      j += 1
    }
    true
  }

  private def boxDisjoint(n: Node, qlo: Array[Double], qhi: Array[Double]): Boolean = {
    var j = 0
    while (j < dim) {
      if (n.hi(j) < qlo(j) || n.lo(j) > qhi(j)) return true
      j += 1
    }
    false
  }

  private def inRect(p: LabeledPoint, qlo: Array[Double], qhi: Array[Double]): Boolean = {
    var j = 0
    while (j < dim) {
      if (p.x(j) < qlo(j) || p.x(j) > qhi(j)) return false
      j += 1
    }
    true
  }

  /** The range coreset: union of canonical-node samples and boundary-leaf
    * points inside `R`, re-thinned per color with Gonzalez(kTotal).
    */
  def rangeCoreset(qlo: Array[Double], qhi: Array[Double], kTotal: Int): Array[LabeledPoint] = {
    val pool = new ArrayBuffer[LabeledPoint]()
    def go(n: Node): Unit = {
      if (boxDisjoint(n, qlo, qhi)) ()
      else if (boxInside(n, qlo, qhi)) pool ++= n.samples
      else if (n.points != null) n.points.foreach(p => if (inRect(p, qlo, qhi)) pool += p)
      else { go(n.left); go(n.right) }
    }
    go(root)
    Coreset.local(pool.toArray, math.min(kMax, kTotal))
  }

  /** FairDiv over `P ∩ R`: range coreset + MFD. `k_j` are clipped by
    * [[MFD.attainable]] (a query rectangle may simply lack a color).
    */
  def query(qlo: Array[Double], qhi: Array[Double], k: Map[Int, Int],
            cfg: MFD.Config = MFD.Config()): MFD.Result = {
    val kTotal = k.values.sum
    val coreset = rangeCoreset(qlo, qhi, kTotal)
    val attainable = MFD.attainable(coreset, k)
    require(attainable.nonEmpty, "query rectangle contains no point of any requested color")
    MFD.run(coreset, attainable, cfg)
  }
}
