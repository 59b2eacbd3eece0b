package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Fig. 7/8 — the proportional-k_j variant of the end-to-end comparison
  * (k_j ∝ color frequency). Paper: "all observations are identical to the
  * equal case", so one small and one large dataset suffice to confirm the
  * shape.
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
