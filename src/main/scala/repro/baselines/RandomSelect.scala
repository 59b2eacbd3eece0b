package repro.baselines

import repro.core.{Instance, LabeledPoint}

/** Random selection — the "highly efficient, very poor diversity" extreme
  * discussed in §6.2: k_j points sampled uniformly per color.
  */
object RandomSelect {

  def select(pts: Array[LabeledPoint], k: Map[Int, Int], seed: Long = 7L): Array[LabeledPoint] = {
    val in = new Instance(pts, k)
    val rnd = new scala.util.Random(seed)
    in.colors.indices.sortBy(in.colors).flatMap(j => rnd.shuffle(in.colorIdx(j).toSeq).take(in.kOf(j)).map(pts)).toArray
  }
}
