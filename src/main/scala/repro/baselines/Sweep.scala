package repro.baselines

import repro.core.{Deadline, LabeledPoint, Points}
import repro.flow.MaxFlow

/** The skeleton FairFlow, FairGreedyFlow and FMMD-S share (paper §6): on
  * the m·k coreset, lower a separation geometrically from a Gonzalez scale
  * until the baseline's own feasibility rule yields a fair selection.
  */
private[baselines] object Sweep {

  /** Tries `start`, `start·decay`, … (at most `steps` values) and returns the
    * first selection `feasible` yields. Falls back to
    * [[Points.firstPerColor]] of `cand` when `start` is not a positive
    * finite number or every step fails.
    */
  def firstFeasible(cand: Array[LabeledPoint], k: Map[Int, Int], start: Double, decay: Double,
                    steps: Int, deadlineNanos: Long)
                   (feasible: Double => Option[Array[LabeledPoint]]): Array[LabeledPoint] = {
    if (java.lang.Double.isFinite(start) && start > 0) {
      var sep = start
      var attempt = 0
      while (attempt < steps) {
        Deadline.check(deadlineNanos)
        feasible(sep) match {
          case Some(sel) => return sel
          case None => sep *= decay; attempt += 1
        }
      }
    }
    Points.firstPerColor(cand, k)
  }

  /** Picks `k_j` candidates of each color, at most one per group, via a
    * source → color (cap `k_j`) → group (cap 1) → sink max-flow over the
    * first candidate of each (color, group); `group(i) = -1` is no group.
    * None when the flow is below Σk_j.
    */
  def onePerGroup(cand: Array[LabeledPoint], k: Map[Int, Int], group: Array[Int],
                  nGroups: Int): Option[Array[LabeledPoint]] = {
    val kTotal = k.values.sum
    if (nGroups < kTotal) return None
    // Nodes: 0 = source, 1..m colors, then groups, then sink.
    val colors = k.keys.toArray.sorted
    val colorNode = colors.zipWithIndex.map { case (c, j) => c -> (1 + j) }.toMap
    val groupBase = 1 + colors.length
    val sink = groupBase + nGroups
    val mf = new MaxFlow(sink + 1)
    colors.foreach(c => mf.addEdge(0, colorNode(c), k(c)))
    val rep = scala.collection.mutable.Map[(Int, Int), Int]()
    cand.indices.foreach { i =>
      if (group(i) >= 0 && colorNode.contains(cand(i).color)) rep.getOrElseUpdate((cand(i).color, group(i)), i)
    }
    val edgeFor = rep.map { case ((c, g), pi) =>
      (mf.addEdge(colorNode(c), groupBase + g, 1), pi)
    }.toArray
    (0 until nGroups).foreach(g => mf.addEdge(groupBase + g, sink, 1))
    if (mf.maxflow(0, sink) < kTotal) None
    else Some(edgeFor.collect { case (e, pi) if mf.flowOn(e) > 0 => cand(pi) })
  }
}
