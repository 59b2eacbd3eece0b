package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Fig. 7/8 — the proportional-k_j variant of the end-to-end comparison
  * (k_j ∝ color frequency) on one small and one large dataset. The paper
  * finds every observation identical to the equal case; here three of the
  * four cells keep the equal case's order, but on Popsim_1M k=20 SFDM-2(.15)
  * is more diverse than MFD (EXPERIMENTS.md). The suite asserts only that
  * MFD finishes with positive diversity.
  */
class ProportionalBench extends SparkSpec {

  for ((spec, k) <- Experiments.endToEndCells(proportional = true)) {
    test(s"Fig 7/8: ${spec.name} k=$k (proportional k_j)") {
      val rows = Experiments.endToEnd(spark, spec, k, proportional = true)
      val mfd = rows.find(_.algo.startsWith("MFD")).get
      assert(!mfd.dnf && mfd.diversity > 0)
    }
  }
}
