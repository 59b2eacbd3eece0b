package repro.perfbench

/** Order statistics for the per-cell samples of one run. */
object Summary {

  /** Median (mean of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  /** First and third quartile by the same rule as Python's
    * `statistics.quantiles(xs, n=4)` (the "exclusive" method), so run-level
    * spreads read the same here and in any script that re-derives them.
    */
  def quartiles(xs: Seq[Double]): (Double, Double) = {
    require(xs.length >= 2, "quartiles need at least two samples")
    val s = xs.sorted.toArray
    val n = s.length
    val m = n + 1
    def q(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), n - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4.0
    }
    (q(1), q(3))
  }

  /** The tail of a timing: the highest percentile that still has at least
    * `beyond` samples strictly above it.
    *
    * @param percentile rank of the value as a share of the sample count, ×100
    * @param above      samples strictly greater than `value`
    */
  final case class Tail(value: Double, percentile: Double, above: Int, samples: Int)

  /** None when fewer than `beyond + 1` samples exist. */
  def tail(xs: Seq[Double], beyond: Int = 10): Option[Tail] = {
    val s = xs.sorted.toArray
    val n = s.length
    var r = n - beyond // 1-based rank of the candidate
    while (r >= 1 && s.count(_ > s(r - 1)) < beyond) r -= 1
    if (r < 1) None
    else Some(Tail(s(r - 1), 100.0 * r / n, s.count(_ > s(r - 1)), n))
  }
}
