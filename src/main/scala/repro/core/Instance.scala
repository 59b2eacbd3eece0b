package repro.core

/** A FairDiv input (paper §2): points in R^d, one color each, and a lower
  * bound `k_j` per color of `k`. The constructor checks what §2 requires and
  * throws an `IllegalArgumentException` naming the point id or the color:
  *  - every `k_j ≥ 0` and `Σk_j ≥ 1` ([[Instance.checkK]]);
  *  - one dimension `d ≥ 1`, finite coordinates and distinct ids
  *    ([[Instance.checkPoints]]).
  * A color of `k` may be absent from `pts` or hold fewer than `k_j` points;
  * whether that is infeasible is the caller's rule.
  */
final class Instance(val pts: Array[LabeledPoint], k: Map[Int, Int]) {
  val kTotal: Int = Instance.checkK(k) // Σk_j
  Instance.checkPoints(pts)
  /** The colors of `k`, in `k`'s order, their `k_j`, and their points as
    * indices into `pts`, in input order.
    */
  val colors: Array[Int] = k.keys.toArray
  val kOf: Array[Int] = colors.map(k)
  val colorIdx: Array[Array[Int]] = colors.map(c => pts.indices.filter(pts(_).color == c).toArray)
}

object Instance {

  /** Checks that every `k_j ≥ 0` and `Σk_j ≥ 1`; returns `Σk_j`. */
  def checkK(k: Map[Int, Int]): Int = {
    k.foreach { case (c, kc) => require(kc >= 0, s"color $c has k_j = $kc < 0") }
    val total = k.values.sum
    require(total >= 1, s"k = ${k.mkString("{", ", ", "}")} asks for no point (Σk_j = $total)")
    total
  }

  /** Checks that `pts` share one dimension `d ≥ 1`, have finite coordinates
    * and distinct ids.
    */
  def checkPoints(pts: Array[LabeledPoint]): Unit = {
    pts.foreach(checkPoint(_, pts(0)))
    val ids = pts.map(_.id)
    java.util.Arrays.sort(ids)
    var i = 1
    while (i < ids.length) { require(ids(i) != ids(i - 1), s"point id ${ids(i)} appears twice"); i += 1 }
  }

  /** Checks that `p` has as many coordinates as `first`, at least one, all finite. */
  def checkPoint(p: LabeledPoint, first: LabeledPoint): Unit = {
    require(p.x.length == first.x.length,
      s"point ${p.id} has ${p.x.length} coordinates, point ${first.id} has ${first.x.length}")
    require(p.x.length >= 1, s"point ${p.id} has no coordinates")
    var j = 0 // a while loop: `foreach` would box every coordinate
    while (j < p.x.length) {
      if (!java.lang.Double.isFinite(p.x(j))) throw new IllegalArgumentException(s"point ${p.id} has coordinate ${p.x(j)}")
      j += 1
    }
  }
}
