package repro.core

/** Generic (1+ε)-coreset for FairDiv (Theorem 4.2): run any constant-
  * approximation k-center algorithm independently on each color class and
  * take the union of the centers. The paper's implementation (§6) fixes the
  * algorithm to Gonzalez with k' = k iterations per color, giving a coreset
  * of exactly `m·k` points (capped by color-class size); we do the same.
  */
object Coreset {

  /** Per-color Gonzalez(k') coreset. O(n k') time, O(n) space. */
  def local(pts: Array[LabeledPoint], kPrime: Int): Array[LabeledPoint] =
    if (pts.isEmpty) Array.empty
    else perColor(pts.map(_.color), Points.flatten(pts), pts(0).x.length, pts.length, kPrime).map(pts)

  /** Per-color Gonzalez(k') over the first `n` rows of a flat block: point
    * `i` has color `colors(i)` and coordinates `xs(i·d until (i+1)·d)`.
    * Returns the centers as row indices, grouped by color in `Array.groupBy`'s
    * key order (the order the baselines and QFairDiv have always read their
    * candidates in), each color's centers in selection order.
    *
    * One counting pass over the colors (small group indices) sorts the rows
    * by color, keeping input order within a color, into one contiguous block
    * per color; Gonzalez then runs on each block.
    */
  def perColor(colors: Array[Int], xs: Array[Double], d: Int, n: Int, kPrime: Int): Array[Int] = {
    if (n == 0) return Array.empty
    var lo = colors(0); var hi = lo
    var i = 0
    while (i < n) { val c = colors(i); if (c < lo) lo = c; if (c > hi) hi = c; i += 1 }
    // start(c - lo) until start(c - lo + 1): the rows of color c, once sorted.
    val start = new Array[Int](hi - lo + 2)
    i = 0
    while (i < n) { start(colors(i) - lo + 1) += 1; i += 1 }
    var c = 1
    while (c < start.length) { start(c) += start(c - 1); c += 1 }
    val next = start.clone()
    val row = new Array[Int](n)
    val sorted = new Array[Double](n * d)
    i = 0
    while (i < n) {
      val s = next(colors(i) - lo); next(colors(i) - lo) += 1
      row(s) = i
      var j = 0
      while (j < d) { sorted(s * d + j) = xs(i * d + j); j += 1 }
      i += 1
    }
    val present = (lo to hi).filter(c => start(c - lo + 1) > start(c - lo)).toArray
    val out = Array.newBuilder[Int]
    present.groupBy(identity).keys.foreach { c =>
      val from = start(c - lo)
      Gonzalez.flat(sorted, d, from, start(c - lo + 1) - from, kPrime).centers.foreach(j => out += row(from + j))
    }
    out.result()
  }
}
