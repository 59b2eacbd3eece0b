package repro.perfbench

import repro.core.{LabeledPoint, MFD, Points}

/** The output contract every benchmark cell is checked against. Each method
  * returns the violations it found; an empty list means the output holds.
  *
  * `input` is the generated input indexed by id (ids are `0 until n`).
  */
object Contract {

  private def sameAsInput(p: LabeledPoint, input: Array[LabeledPoint]): Boolean =
    p.id >= 0 && p.id < input.length && {
      val q = input(p.id.toInt)
      q.color == p.color && java.util.Arrays.equals(q.x, p.x)
    }

  /** `pts` has unique ids and is a subset of the input (same id, color and
    * coordinates) and, when given, of `pool`; `what` names `pts` in the
    * messages.
    */
  def subset(what: String, pts: Array[LabeledPoint], input: Array[LabeledPoint],
             pool: Option[Array[LabeledPoint]]): List[String] = {
    val dup = pts.groupBy(_.id).collect { case (id, g) if g.length > 1 => id }
    val notInput = pts.filterNot(sameAsInput(_, input)).map(_.id)
    val notPool = pool.fold(Array.empty[Long]) { pl =>
      val ids = pl.iterator.map(_.id).toSet
      pts.filterNot(p => ids.contains(p.id)).map(_.id)
    }
    List(
      if (dup.nonEmpty) Some(s"$what: duplicate ids ${dup.take(5).mkString(",")}") else None,
      if (notInput.nonEmpty) Some(s"$what: points not in the input ${notInput.take(5).mkString(",")}") else None,
      if (notPool.nonEmpty) Some(s"$what: points outside its source set ${notPool.take(5).mkString(",")}") else None
    ).flatten
  }

  /** Expected coreset size: `min(k', |P(c)|)` points of every color. */
  def coresetSize(colorCounts: Map[Int, Long], kPrime: Int): Int =
    colorCounts.values.map(c => math.min(kPrime.toLong, c).toInt).sum

  /** A per-color Gonzalez coreset: a subset of the input with unique ids and
    * `min(k', |P(c)|)` points per color.
    */
  def coreset(cs: Array[LabeledPoint], input: Array[LabeledPoint],
              colorCounts: Map[Int, Long], kPrime: Int): List[String] = {
    val got = cs.groupBy(_.color).map { case (c, g) => c -> g.length }
    val wrong = colorCounts.collect {
      case (c, nc) if got.getOrElse(c, 0) != math.min(kPrime.toLong, nc) =>
        s"color $c has ${got.getOrElse(c, 0)} != min($kPrime, $nc)"
    }
    subset("coreset", cs, input, None) ++ wrong.map("coreset: " + _)
  }

  /** The MFD result `res` drawn from `pool` (the coreset or the stream
    * synopsis; None where the caller cannot see it, and only the input is
    * checked): a subset with unique ids, `div(S)` as reported, and
    * `div(S) ≥ γ/(2(1+ε))` (Theorem 3.2, by construction of the rounding).
    */
  def selection(res: MFD.Result, input: Array[LabeledPoint], pool: Option[Array[LabeledPoint]],
                eps: Double): List[String] = {
    val s = res.selected
    val div = Points.diversity(s.toSeq)
    val reported = res.diversity
    val sameDiv = div == reported || math.abs(div - reported) <= 1e-9 * math.max(1.0, math.abs(div))
    val lower = res.gamma / (2.0 * (1.0 + eps))
    subset("S", s, input, pool) ++ List(
      if (s.isEmpty) Some("S: empty selection") else None,
      if (!sameDiv) Some(s"S: div recomputed $div != reported $reported") else None,
      if (!(div >= lower * (1 - 1e-12))) Some(s"S: div $div < gamma/(2(1+eps)) = $lower") else None
    ).flatten
  }

  /** Σ_j max(0, k_j − |S(c_j)|): paper-mode shortfall, a metric, not a failure. */
  def missed(s: Array[LabeledPoint], k: Map[Int, Int]): Int =
    Points.missedPerColor(s.toSeq, k).values.sum
}
