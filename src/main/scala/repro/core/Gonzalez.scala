package repro.core

/** Gonzalez's greedy algorithm for k-center clustering (2-approximation).
  *
  * Used three ways in the reproduction, exactly as in the paper's §6:
  *  - per-color runs build the (1+ε)-coreset (Theorem 4.2 with Alg = Gonzalez);
  *  - a colorblind run on the whole set supplies the start γ of the
  *    diversity sweeps (min pairwise distance among the k centers);
  *  - node samples of the QFairDiv range structure.
  *
  * O(nk) time, O(n) space. Deterministic: index 0 is the first center. No
  * index is picked twice, so `min(k, n)` distinct indices come back even when
  * `k` exceeds the number of distinct locations.
  *
  * Every run goes through one loop over a row-major coordinate block
  * ([[Points.flatten]]); `run` over points copies their coordinates first.
  */
object Gonzalez {

  /** Result of a run: selected indices (into the input array, in selection
    * order) and `radius` = max distance of any input point to its nearest
    * selected center (the k-center objective value of the solution).
    */
  final case class Result(centers: Array[Int], radius: Double)

  def run(pts: Array[LabeledPoint], k: Int): Result =
    if (pts.isEmpty) Result(Array.empty, 0.0)
    else flat(Points.flatten(pts), pts(0).x.length, 0, pts.length, k)

  /** Gonzalez over the `n` rows `from until from + n` of the row-major block
    * `xs` of dimension `d`. Centers are row indices relative to `from`.
    */
  def flat(xs: Array[Double], d: Int, from: Int, n: Int, k: Int): Result = {
    val kk = math.min(k, n)
    val minD = Array.fill(n)(Double.PositiveInfinity)
    val centers = new Array[Int](kk)
    val base = from * d
    var cur = 0
    var c = 0
    while (c < kk) {
      centers(c) = cur
      minD(cur) = Double.NegativeInfinity // never re-picked, even among duplicates
      val cb = base + cur * d
      var far = 0; var farD = -1.0
      var i = 0
      var pb = base
      while (i < n) {
        var s = 0.0
        var j = 0
        while (j < d) { val t = xs(pb + j) - xs(cb + j); s += t * t; j += 1 }
        if (s < minD(i)) minD(i) = s
        if (minD(i) > farD) { farD = minD(i); far = i }
        i += 1
        pb += d
      }
      cur = far
      c += 1
    }
    var radius = 0.0
    var i = 0
    while (i < n) { if (minD(i) > radius) radius = minD(i); i += 1 }
    Result(centers, math.sqrt(radius))
  }

  /** Selected points (not indices). */
  def centers(pts: Array[LabeledPoint], k: Int): Array[LabeledPoint] =
    run(pts, k).centers.map(pts)

  /** Diversity `d_G` (min pairwise distance) of a colorblind Gonzalez run —
    * the paper's practical *start* for the γ sweep. It is not an upper bound
    * on the FairDiv optimum: `2·d_G` is (Gonzalez's farthest-first
    * pigeonhole argument), and OPT may exceed `d_G`.
    */
  def diversityUpperBound(pts: Array[LabeledPoint], k: Int): Double = {
    val cs = centers(pts, k)
    if (cs.length < 2) Double.PositiveInfinity else Points.diversity(cs.toSeq)
  }
}
