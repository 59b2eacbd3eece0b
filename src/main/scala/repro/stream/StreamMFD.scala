package repro.stream

import repro.core.{Deadline, LabeledPoint, MFD}

/** StreamMFD (Theorem 5.1): the streaming FairDiv algorithm.
  *
  * One [[DoublingKCenter]] instance per color maintains a constant-factor
  * k-center solution of that color class over the stream — by Lemma 4.1 /
  * Theorem 4.2 the union of the per-color centers is a (1+ε)-coreset for
  * FairDiv over everything seen so far. Post-processing runs MFD on that
  * ≤ m·k-point synopsis.
  *
  * Stored items: O(mk). Update: O(k) (one doubling instance touched per
  * element). Post-processing: the MFD solve on m·k points.
  */
final class StreamMFD(k: Map[Int, Int], cfg: MFD.Config = MFD.Config()) {
  private val kTotal = k.values.sum
  // 3k centers per color — still O(mk) memory, but the doubling threshold
  // tracks OPT_{3k} instead of OPT_k, which visibly improves the synopsis
  // (the paper's O(mk) bound likewise hides its constant).
  private val capacity = 3 * kTotal
  private val perColor = scala.collection.mutable.Map[Int, DoublingKCenter]()

  def insert(p: LabeledPoint): Unit =
    perColor.getOrElseUpdate(p.color, new DoublingKCenter(capacity)).insert(p)

  /** Current synopsis (the streaming coreset). */
  def synopsis: Array[LabeledPoint] = perColor.values.flatMap(_.centers).toArray

  def storedCount: Int = perColor.values.map(_.centers.length).sum

  /** Build a FairDiv solution from the synopsis, with `k` clipped by
    * [[MFD.attainable]]: a color scarce in the stream gets what the synopsis
    * holds of it.
    */
  def postProcess(deadlineNanos: Long = Deadline.None): MFD.Result = {
    val syn = synopsis
    MFD.run(syn, MFD.attainable(syn, k), cfg.copy(deadlineNanos = deadlineNanos))
  }
}
