package repro.baselines

import repro.core.LabeledPoint
import repro.flow.MaxFlow

/** The max-flow step FairFlow and FairGreedyFlow share: one candidate per
  * group, `k_j` per color.
  */
private[baselines] object GroupFlow {

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
