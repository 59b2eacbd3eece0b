package repro.core

/** The skeleton MFD and the offline baselines share (paper §6): lower a value
  * geometrically from `d_G` until a test passes; else return a fair set.
  */
object Sweep {

  /** The result `feasible` gave for `value`, after `failed` values failed. */
  final case class Accepted[A](result: A, value: Double, failed: Int)

  /** Tries `start`, `start·decay`, … (at most `steps` values, by repeated
    * multiplication, a deadline check per value) and returns the first one
    * `feasible` accepts; None when `start` is not positive and finite or
    * every value fails.
    */
  def geometric[A](start: Double, decay: Double, steps: Int, deadlineNanos: Long)
                  (feasible: Double => Option[A]): Option[Accepted[A]] = {
    if (!java.lang.Double.isFinite(start) || start <= 0) return None
    var value = start
    var failed = 0
    while (failed < steps) {
      Deadline.check(deadlineNanos)
      feasible(value) match {
        case Some(a) => return Some(Accepted(a, value, failed))
        case None => value *= decay; failed += 1
      }
    }
    None
  }

  /** The fair, diversity-agnostic fallback: the `min(k_j, |P(c_j)|)`
    * farthest-first (Gonzalez) points of each color of `k`, in `k`'s order.
    * Rejects what [[Instance]] rejects.
    */
  def fallback(pts: Array[LabeledPoint], k: Map[Int, Int]): Array[LabeledPoint] = fallback(new Instance(pts, k))

  def fallback(in: Instance): Array[LabeledPoint] =
    in.colors.indices.flatMap(j => Gonzalez.centers(in.colorIdx(j).map(in.pts), in.kOf(j))).toArray
}
