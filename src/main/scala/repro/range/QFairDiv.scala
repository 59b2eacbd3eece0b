package repro.range

import repro.core.{Coreset, LabeledPoint, MFD}
import repro.geo.KdTree
import scala.collection.mutable.ArrayBuffer

/** QFairDiv range structure (Theorem 5.2): preprocess `P` so that, given a
  * query rectangle `R` and per-color bounds `k_j`, a FairDiv solution over
  * `P ∩ R` is returned without scanning `P`.
  *
  * The theoretical construction uses the range-k-center structures of
  * [6, 44]; we realise the same contract on the shared [[KdTree]], where
  * each node above `bucket` points stores a per-color Gonzalez(kMax) sample
  * of its subtree and a smaller node stands for all its points. A query
  * decomposes `R` into O(log n) canonical nodes (a leaf's box is its point,
  * so every leaf reached is inside `R` or disjoint from it); the union of
  * their samples is a constant-factor per-color k-center solution of `P ∩ R`
  * (k-center composability), i.e. a FairDiv coreset for the range — MFD
  * finishes the job. Query cost is polylogarithmic in n for fixed k, m.
  *
  * @param kMax largest per-query k supported by the samples
  */
final class QFairDiv(pts: Array[LabeledPoint], kMax: Int) {
  require(pts.nonEmpty)
  private val dim = pts(0).x.length
  private val bucket = math.max(4 * kMax, 64)
  private val tree = KdTree.build(pts)

  // By node id; null below `bucket` points. Children have larger ids than
  // their parent, so one reverse id scan merges children before parents.
  private val samples = new Array[Array[LabeledPoint]](tree.nodeCount)

  private def sample(u: Int): Array[LabeledPoint] =
    if (samples(u) != null) samples(u) else tree.pointsUnder(u).map(pts)

  locally {
    val size = new Array[Double](tree.nodeCount)
    tree.subtreeSums(Array.fill(pts.length)(1.0), size)
    var u = tree.nodeCount - 1
    while (u >= 0) {
      // Merge children samples with a second Gonzalez pass (composability).
      if (size(u) > bucket) samples(u) = Coreset.local(sample(tree.left(u)) ++ sample(tree.right(u)), kMax)
      u -= 1
    }
  }

  /** The range coreset: union of the canonical-node samples of `R`,
    * re-thinned per color with Gonzalez(min(kMax, kTotal)).
    */
  def rangeCoreset(qlo: Array[Double], qhi: Array[Double], kTotal: Int): Array[LabeledPoint] = {
    val pool = new ArrayBuffer[LabeledPoint]()
    def go(u: Int): Unit = {
      val b = u * dim
      var inside = true
      var j = 0
      while (j < dim) {
        val lo = tree.boxLo(b + j); val hi = tree.boxHi(b + j)
        if (hi < qlo(j) || lo > qhi(j)) return
        if (lo < qlo(j) || hi > qhi(j)) inside = false
        j += 1
      }
      if (inside) pool ++= sample(u) else { go(tree.left(u)); go(tree.right(u)) }
    }
    go(tree.root)
    Coreset.local(pool.toArray, math.min(kMax, kTotal))
  }

  /** FairDiv over `P ∩ R`: range coreset + MFD. `k_j` are clipped by
    * [[MFD.attainable]] (a query rectangle may simply lack a color). The
    * samples hold kMax points per color, so Σ k_j may not exceed kMax.
    */
  def query(qlo: Array[Double], qhi: Array[Double], k: Map[Int, Int],
            cfg: MFD.Config = MFD.Config()): MFD.Result = {
    val kTotal = k.values.sum
    require(kTotal <= kMax, s"Σ k_j = $kTotal exceeds kMax = $kMax, the per-color sample size")
    val coreset = rangeCoreset(qlo, qhi, kTotal)
    val attainable = MFD.attainable(coreset, k)
    require(attainable.nonEmpty, "query rectangle contains no point of any requested color")
    MFD.run(coreset, attainable, cfg)
  }
}
