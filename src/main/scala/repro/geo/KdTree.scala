package repro.geo

import repro.core.LabeledPoint
import java.util.Arrays
import scala.collection.mutable.ArrayBuffer

/** KD-tree over a fixed point set with the canonical-ball-query interface the
  * MFD algorithm needs from a BBD-tree (the paper's implementation likewise
  * substitutes a KD-tree — ParGeo's — for the theoretical BBD-tree).
  *
  * The tree is static: its `2n − 1` nodes are laid out in fixed arrays, node
  * `u`'s box at `u·d until (u+1)·d` of `boxLo`/`boxHi` (a leaf's box is its
  * point). Algorithms attach their own per-node arrays (sized [[nodeCount]])
  * and use
  * [[canonicalNodes]] plus the two whole-tree passes [[rootPathSums]]
  * (top-down) and [[subtreeSums]] (bottom-up) to implement the Oracle /
  * Update / Round primitives of the paper: each pass is O(nodes), and a
  * canonical query is O(log n + ε^{-d})-ish.
  *
  * Canonical query contract (`canonicalNodes(q, r, eps)`): returns node ids
  * whose point sets are pairwise disjoint and whose union `S` satisfies the
  * sandwich
  *   `{p : ||p-q|| ≤ r} ⊆ S ⊆ {p : ||p-q|| ≤ (1+eps)·r}`.
  * Internal nodes are returned when their bounding box lies entirely inside
  * `B(q,(1+eps)r)`; leaves (single points) are returned iff within `r`.
  */
final class KdTree private (
    val left: Array[Int],
    val right: Array[Int],
    val parent: Array[Int],
    val leafPoint: Array[Int],   // node -> point index (-1 for internal)
    val leafOf: Array[Int],      // point index -> leaf node id
    val boxLo: Array[Double],
    val boxHi: Array[Double]
) {
  def nodeCount: Int = left.length
  def root: Int = 0
  def isLeaf(u: Int): Boolean = leafPoint(u) >= 0
  private val dim = boxLo.length / nodeCount
  /** Median splits halve the points per level: a leaf is ⌈log2 n⌉ edges deep at most. */
  private val height = 32 - Integer.numberOfLeadingZeros(leafOf.length - 1)

  /** Node ids from the leaf of point `i` up to (and including) the root. */
  def pathToRoot(i: Int): Array[Int] = {
    val buf = new ArrayBuffer[Int]()
    var u = leafOf(i)
    while (u != -1) { buf += u; u = parent(u) }
    buf.toArray
  }

  /** Top-down pass: `out(u) = Σ nodeVal(v)` over `v` on the path from the
    * root to `u`, so `out(leafOf(i))` is point `i`'s root-path sum. Parents
    * have smaller ids than their children, so an id scan sees parents first.
    */
  def rootPathSums(nodeVal: Array[Double], out: Array[Double]): Unit = {
    out(root) = nodeVal(root)
    var u = 1
    while (u < nodeCount) { out(u) = out(parent(u)) + nodeVal(u); u += 1 }
  }

  /** Bottom-up pass: `out(u) = Σ pointVal(i)` over the points `i` under `u`
    * (`pointVal` is indexed by point). A reverse id scan sees children
    * before parents.
    */
  def subtreeSums(pointVal: Array[Double], out: Array[Double]): Unit = {
    var u = nodeCount - 1
    while (u >= 0) {
      val p = leafPoint(u)
      out(u) = if (p >= 0) pointVal(p) else out(left(u)) + out(right(u))
      u -= 1
    }
  }

  private def minDistSq(q: Array[Double], u: Int): Double = {
    val b = u * dim
    var s = 0.0; var i = 0
    while (i < dim) {
      val v = q(i); val lo = boxLo(b + i); val hi = boxHi(b + i)
      if (v < lo) { val d = lo - v; s += d * d }
      else if (v > hi) { val d = v - hi; s += d * d }
      i += 1
    }
    s
  }

  private def maxDistSq(q: Array[Double], u: Int): Double = {
    val b = u * dim
    var s = 0.0; var i = 0
    while (i < dim) {
      val d = math.max(math.abs(q(i) - boxLo(b + i)), math.abs(q(i) - boxHi(b + i)))
      s += d * d
      i += 1
    }
    s
  }

  /** Canonical nodes for the ball `B(q, r)` with slack `eps` (see class doc),
    * in preorder, left child first.
    */
  def canonicalNodes(q: Array[Double], r: Double, eps: Double): Array[Int] = {
    val r2 = r * r
    val r2eps = (1 + eps) * r * (1 + eps) * r
    var out = new Array[Int](8)
    var size = 0
    // At most one pending right child per level, plus the current node.
    val stack = new Array[Int](height + 1)
    stack(0) = root
    var top = 1
    while (top > 0) {
      top -= 1
      val u = stack(top)
      if (minDistSq(q, u) <= r2) {
        // A leaf's box is its point: minDistSq is its exact squared distance.
        if (isLeaf(u) || maxDistSq(q, u) <= r2eps) {
          if (size == out.length) out = Arrays.copyOf(out, 2 * size)
          out(size) = u
          size += 1
        } else {
          stack(top) = right(u)
          stack(top + 1) = left(u)
          top += 2
        }
      }
    }
    Arrays.copyOf(out, size)
  }

  /** All point indices stored below node `u`. */
  def pointsUnder(u: Int): Array[Int] = {
    val out = new ArrayBuffer[Int]()
    def go(v: Int): Unit =
      if (isLeaf(v)) out += leafPoint(v)
      else { go(left(v)); go(right(v)) }
    go(u)
    out.toArray
  }
}

object KdTree {

  /** Build a KD-tree (single point per leaf, tight bounding boxes, widest-
    * dimension median splits). O(n log n) expected.
    */
  def build(pts: Array[LabeledPoint]): KdTree = {
    require(pts.nonEmpty, "KdTree over empty set")
    val n = pts.length
    val dim = pts(0).x.length
    val size = 2 * n - 1 // one leaf per point, and every internal node has two children
    val idx = Array.range(0, n)

    val left = Array.fill(size)(-1)
    val right = Array.fill(size)(-1)
    val parent = new Array[Int](size)
    val leafPoint = Array.fill(size)(-1)
    val boxLo = Array.fill(size * dim)(Double.PositiveInfinity)
    val boxHi = Array.fill(size * dim)(Double.NegativeInfinity)
    val leafOf = new Array[Int](n)
    var next = 0 // preorder ids: a parent's id is smaller than its children's

    def buildRec(lo: Int, hi: Int, par: Int): Int = {
      val u = next
      next += 1
      parent(u) = par
      val b = u * dim
      var i = lo
      while (i < hi) {
        val x = pts(idx(i)).x
        var j = 0
        while (j < dim) {
          if (x(j) < boxLo(b + j)) boxLo(b + j) = x(j)
          if (x(j) > boxHi(b + j)) boxHi(b + j) = x(j)
          j += 1
        }
        i += 1
      }
      if (hi - lo == 1) {
        leafPoint(u) = idx(lo)
        leafOf(idx(lo)) = u
      } else {
        // Split on the widest dimension at the median of that coordinate.
        var sd = 0; var w = -1.0
        var j = 0
        while (j < dim) {
          val ww = boxHi(b + j) - boxLo(b + j)
          if (ww > w) { w = ww; sd = j }
          j += 1
        }
        val mid = (lo + hi) / 2
        selectByDim(idx, lo, hi, mid, pts, sd)
        left(u) = buildRec(lo, mid, u)
        right(u) = buildRec(mid, hi, u)
      }
      u
    }

    buildRec(0, n, -1)
    new KdTree(left, right, parent, leafPoint, leafOf, boxLo, boxHi)
  }

  /** In-place quickselect of `idx[lo,hi)` so position `mid` holds the median
    * along dimension `sd` (duplicates land arbitrarily but consistently).
    */
  private def selectByDim(idx: Array[Int], lo0: Int, hi0: Int, mid: Int,
                          pts: Array[LabeledPoint], sd: Int): Unit = {
    var lo = lo0; var hi = hi0
    val rnd = new java.util.Random(42L + mid)
    while (hi - lo > 1) {
      val pivotIdx = lo + rnd.nextInt(hi - lo)
      val pivot = pts(idx(pivotIdx)).x(sd)
      var i = lo; var lt = lo; var gt = hi
      // 3-way partition on coordinate value
      while (i < gt) {
        val v = pts(idx(i)).x(sd)
        if (v < pivot) { val t = idx(i); idx(i) = idx(lt); idx(lt) = t; lt += 1; i += 1 }
        else if (v > pivot) { gt -= 1; val t = idx(i); idx(i) = idx(gt); idx(gt) = t }
        else i += 1
      }
      if (mid < lt) hi = lt
      else if (mid >= gt) lo = gt
      else return // mid inside the equal-to-pivot run
    }
  }
}
