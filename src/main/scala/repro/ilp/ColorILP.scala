package repro.ilp

import repro.core.{Instance, Points}

/** Exact feasibility solver for the FMMD-S inner integer program:
  * given candidates with colors and a distance threshold δ, decide whether a
  * subset exists containing exactly `k_j` points of each color with all
  * pairwise distances ≥ δ (an independent set in the conflict graph with
  * per-color cardinality constraints), and return one if so.
  *
  * The original FMMD-S implementation calls a MIP solver; offline we replace
  * it with branch-and-bound over the conflict graph: colors are processed in
  * order of scarcity, candidates in order of conflict degree, and a global
  * node budget bounds the search (budget exhaustion is reported as
  * "unknown", which FMMD-S treats as infeasible-at-δ — documented in
  * DESIGN.md). Instances are coreset-sized (≤ m·k points), where greedy
  * orderings almost always succeed without backtracking.
  */
object ColorILP {

  sealed trait Outcome
  final case class Feasible(selected: Array[Int]) extends Outcome
  case object Infeasible extends Outcome
  case object BudgetExhausted extends Outcome

  /** @param in         candidate points, and color → exact count required
    * @param delta      minimum allowed pairwise distance
    * @param nodeBudget max search-tree nodes before giving up
    */
  def solve(in: Instance, delta: Double, nodeBudget: Long = 2000000L): Outcome = {
    val pts = in.pts
    val n = pts.length
    val deltaSq = delta * delta
    // Conflict adjacency as bitsets (n ≤ a few thousand).
    val words = (n + 63) >> 6
    val adj = Array.ofDim[Long](n, words)
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        if (Points.distSq(pts(i).x, pts(j).x) < deltaSq) {
          adj(i)(j >> 6) |= 1L << (j & 63)
          adj(j)(i >> 6) |= 1L << (i & 63)
        }
        j += 1
      }
      i += 1
    }
    val degree = Array.tabulate(n)(i => adj(i).map(java.lang.Long.bitCount(_).toLong).sum.toInt)

    // Colors ordered by scarcity (fewest candidates per required point
    // first; a stable sort over `k`'s order), each color's candidates by
    // low conflict degree first.
    val order = in.colors.indices.sortBy(j => in.colorIdx(j).length.toDouble / math.max(1, in.kOf(j)))
    val kAt = order.map(in.kOf).toArray
    val byColor = order.map(j => in.colorIdx(j).sortBy(degree)).toArray

    val forbidden = new Array[Long](words) // union of neighborhoods of chosen points
    val chosen = new scala.collection.mutable.ArrayBuffer[Int]()
    var nodes = 0L
    var exhausted = false

    def isFree(p: Int): Boolean = (forbidden(p >> 6) & (1L << (p & 63))) == 0

    /** Choose `need` more points of colors[ci..], considering candidates of
      * the current color from position `from` on (enforces a canonical
      * increasing order so each subset is tried once). True on success.
      */
    def search(ci: Int, need: Int, from: Int): Boolean = {
      if (exhausted) return false
      if (ci == byColor.length) return true
      nodes += 1
      if (nodes > nodeBudget) { exhausted = true; return false }
      if (need == 0)
        return search(ci + 1, if (ci + 1 < byColor.length) kAt(ci + 1) else 0, 0)
      val cands = byColor(ci)
      var idx = from
      while (idx <= cands.length - need) {
        val p = cands(idx)
        if (isFree(p)) {
          chosen += p
          val savedF = forbidden.clone()
          var w = 0
          while (w < words) { forbidden(w) |= adj(p)(w); w += 1 }
          forbidden(p >> 6) |= 1L << (p & 63) // a point conflicts with itself
          if (search(ci, need - 1, idx + 1)) return true
          chosen.remove(chosen.length - 1)
          Array.copy(savedF, 0, forbidden, 0, words)
        }
        idx += 1
      }
      false
    }

    val ok = search(0, kAt(0), 0) // an Instance has a color
    if (ok) Feasible(chosen.toArray)
    else if (exhausted) BudgetExhausted
    else Infeasible
  }
}
