package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Table 4 — average number of points missed per color by MFD-0.1 and
  * MFD-0.3 on Diabetes and Popsim, k ∈ {20..100}, equal k_j, 5 runs.
  *
  * Paper's shape: g=0.1 misses a few points per color on some k; g=0.3
  * almost never misses more than ~2 points in total.
  */
class Table4FairnessBench extends SparkSpec {

  for (spec <- Experiments.Table4Specs) {
    test(s"Table 4: missed points per color on ${spec.name}") {
      val rows = Experiments.table4(spark, spec)

      // Shape assertions mirroring the paper's takeaway: MFD-0.3 misses at
      // most a small number of points in total on average.
      val g03 = rows.filter(_.g == 0.3)
      g03.foreach { r =>
        assert(r.missedTotal <= 6.0,
          s"${spec.name} k=${r.k} g=0.3 missed ${r.missedTotal} points on average")
      }
      // And g=0.3 misses no more than g=0.1 overall (aggregate, not per-k:
      // individual k's can tie or flip by randomness).
      val m01 = rows.filter(_.g == 0.1).map(_.missedTotal).sum
      val m03 = g03.map(_.missedTotal).sum
      assert(m03 <= m01 + 2.0, s"g=0.3 total $m03 vs g=0.1 total $m01")
    }
  }
}
