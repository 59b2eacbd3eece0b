package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}

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

  /** Flat-DataFrame entry point (columns id, color, x0..x{d-1}); returns the
    * selected points as a flat DataFrame for SQL-level verification.
    */
  def runFlat(df: DataFrame, k: Map[Int, Int], cfg: MFD.Config = MFD.Config()): DataFrame = {
    val ds = Points.fromFlatDF(df)
    val timed = run(ds, k, cfg)
    Points.toFlatDF(df.sparkSession, timed.result.selected.toSeq)
  }
}
