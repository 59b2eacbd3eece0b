package repro.core

/** A colored point in R^d.
  *
  * @param id    stable identifier (unique within a dataset)
  * @param color sensitive-group index in [0, m)
  * @param x     coordinates
  */
final case class LabeledPoint(id: Long, color: Int, x: Array[Double]) {
  override def toString: String = s"LabeledPoint($id, c$color, [${x.mkString(",")}])"
}

/** Points in columns, the one layout the `O(nk)` Gonzalez kernel reads:
  * point `i < n` has id `ids(i)` and coordinates `cols(j)(i)`, `j < d`.
  * Points keep the order they were added in; the arrays double when full.
  */
final class Block(d: Int, capacity: Int) {
  var ids = new Array[Long](math.max(1, capacity))
  val cols: Array[Array[Double]] = Array.fill(d)(new Array[Double](ids.length))
  var n = 0

  /** Appends point `id` and returns its index; the caller then writes its
    * coordinates into `cols(j)(index)`.
    */
  def add(id: Long): Int = {
    if (n == ids.length) grow()
    ids(n) = id; n += 1; n - 1
  }

  private def grow(): Unit = {
    ids = java.util.Arrays.copyOf(ids, 2 * n)
    var j = 0
    while (j < d) { cols(j) = java.util.Arrays.copyOf(cols(j), 2 * n); j += 1 }
  }

  def add(id: Long, x: Array[Double]): Unit = {
    val i = add(id)
    var j = 0
    while (j < d) { cols(j)(i) = x(j); j += 1 }
  }
}

/** Geometry helpers shared by every module.
  *
  * Distances are plain Euclidean over `Array[Double]`; all hot loops avoid
  * allocation; the Gonzalez kernel reads a column [[Block]].
  */
object Points {

  /** Squared Euclidean distance. */
  def distSq(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** Euclidean distance. */
  def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(distSq(a, b))

  /** Minimum pairwise distance of a set; 0 for a set of fewer than 2 points. */
  def diversity(s: Seq[LabeledPoint]): Double = {
    var best = Double.PositiveInfinity
    val arr = s.toArray
    var i = 0
    while (i < arr.length) {
      var j = i + 1
      while (j < arr.length) {
        val d = distSq(arr(i).x, arr(j).x)
        if (d < best) best = d
        j += 1
      }
      i += 1
    }
    if (arr.length < 2) 0.0 else math.sqrt(best)
  }

  /** Count of points per color. */
  def colorCounts(s: Seq[LabeledPoint]): Map[Int, Int] =
    s.groupBy(_.color).map { case (c, ps) => c -> ps.size }

  /** Per-color shortfall `max(0, k_j - |S(c_j)|)`; the quantity in Table 4. */
  def missedPerColor(s: Seq[LabeledPoint], k: Map[Int, Int]): Map[Int, Int] = {
    val counts = colorCounts(s)
    k.map { case (c, kc) => c -> math.max(0, kc - counts.getOrElse(c, 0)) }
  }
}
