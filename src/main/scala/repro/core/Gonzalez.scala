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
  * Every run goes through one kernel, [[columns]], over a column [[Block]];
  * `run` over points copies their coordinates into one first.
  */
object Gonzalez {

  /** Result of a run: selected indices (into the input array, in selection
    * order) and `radius` = max distance of any input point to its nearest
    * selected center (the k-center objective value of the solution).
    */
  final case class Result(centers: Array[Int], radius: Double)

  def run(pts: Array[LabeledPoint], k: Int): Result = {
    val b = new Block(if (pts.isEmpty) 0 else pts(0).x.length, pts.length)
    pts.foreach(p => b.add(p.id, p.x))
    columns(b.cols, b.n, k)
  }

  /** Gonzalez over the first `n` points of the columns `cols` of a [[Block]].
    * A round takes one pass per dimension `j` that adds `(x_j(i) - c_j)²` into
    * `acc` (loops the JIT vectorises), in the order `j = 0 … d-1` of a
    * row-at-a-time `s += t * t`, so distances, centers and radius are
    * bit-identical to it; then one pass updates `minD` and picks the farthest
    * point, ties to the smallest index (strict `>`).
    */
  def columns(cols: Array[Array[Double]], n: Int, k: Int): Result = {
    val kk = math.min(k, n)
    val minD = Array.fill(n)(Double.PositiveInfinity)
    val acc = new Array[Double](n)
    val centers = new Array[Int](kk)
    var cur = 0
    var c = 0
    while (c < kk) {
      centers(c) = cur
      minD(cur) = Double.NegativeInfinity // never re-picked, even among duplicates
      var j = 0
      while (j < cols.length) {
        val x = cols(j); val cj = x(cur)
        var i = 0
        if (j == 0) while (i < n) { val t = x(i) - cj; acc(i) = t * t; i += 1 }
        else while (i < n) { val t = x(i) - cj; acc(i) += t * t; i += 1 }
        j += 1
      }
      var far = 0; var farD = -1.0; var i = 0
      while (i < n) {
        if (acc(i) < minD(i)) minD(i) = acc(i)
        if (minD(i) > farD) { farD = minD(i); far = i }
        i += 1
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
    * pigeonhole argument), and OPT may exceed `d_G`. It is 0 for `k < 2`
    * (the diversity of one point) and for fewer than `k` distinct locations.
    */
  def diversityUpperBound(pts: Array[LabeledPoint], k: Int): Double =
    Points.diversity(centers(pts, k).toSeq)
}
