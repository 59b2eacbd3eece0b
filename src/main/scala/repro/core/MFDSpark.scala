package repro.core

import org.apache.spark.sql.Dataset

/** End-to-end MFD on Spark (Corollary 4.3): distributed coreset construction
  * over the full dataset, then the MWU solve + rounding on the driver over
  * the `m·k`-point coreset — the same split as the paper's implementation,
  * where coreset construction dominates the runtime and is the data-parallel
  * phase.
  */
object MFDSpark {

  final case class Timed(result: MFD.Result, coresetMillis: Long, mwuMillis: Long,
                         coresetSize: Int)

  /** Run FairDiv over a typed dataset. `k` maps color → lower bound. */
  def run(ds: Dataset[LabeledPoint], k: Map[Int, Int], cfg: MFD.Config = MFD.Config()): Timed = {
    val t0 = System.nanoTime()
    val coreset = CoresetSpark.distributed(ds, k.values.sum)
    val t1 = System.nanoTime()
    val res = MFD.run(coreset, k, cfg)
    val t2 = System.nanoTime()
    Timed(res, (t1 - t0) / 1000000, (t2 - t1) / 1000000, coreset.length)
  }
}
