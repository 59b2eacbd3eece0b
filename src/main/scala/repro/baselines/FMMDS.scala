package repro.baselines

import repro.core.{Coreset, Deadline, Gonzalez, Instance, LabeledPoint, Sweep}
import repro.ilp.ColorILP

/** FMMD-S baseline (Wang, Mathioudakis, Li, Fabbri, SDM 2023 [52]) —
  * `(1-ε)/5`-approximation; the "highest diversity but slow / does not
  * scale" algorithm in the paper's §6.
  *
  * Structure: per-color Gonzalez candidates; a colorblind Gonzalez(k) run
  * sets the initial threshold δ; then δ decays by (1-ε) while an exact
  * integer-feasibility problem — pick exactly k_j candidates per color with
  * pairwise distance ≥ δ — is solved at each step, returning the first
  * feasible selection. The original calls a MIP solver; our substrate is
  * the exact branch-and-bound in [[repro.ilp.ColorILP]] (node budget
  * exhaustion ⇒ treat δ as infeasible; the overall deadline produces the
  * DNFs the paper reports for large instances).
  */
object FMMDS {

  /** Threshold decay ε: δ shrinks by (1-ε) per infeasible step. */
  private val Eps = 0.05

  def select(pts: Array[LabeledPoint], k: Map[Int, Int],
             deadlineNanos: Long = Deadline.None): Array[LabeledPoint] = {
    val kTotal = new Instance(pts, k).kTotal
    val cand = new Instance(Coreset.local(pts, kTotal), k)
    val delta = Gonzalez.diversityUpperBound(cand.pts, kTotal)
    Sweep.geometric(delta, 1.0 - Eps, 400, deadlineNanos)(d =>
      ColorILP.solve(cand, d) match {
        case ColorILP.Feasible(sel) => Some(sel.map(cand.pts))
        case _ => None
      }).fold(Sweep.fallback(cand))(_.result)
  }
}
