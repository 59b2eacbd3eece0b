package repro.core

import org.apache.spark.sql.Dataset

/** Distributed coreset construction — the Spark dataflow phase of the
  * reproduction (the `O(nk)` part of Corollary 4.3; everything downstream
  * runs on `m·k` points).
  *
  * Two-round composable k-center:
  *   1. map side (one Spark stage): each partition runs the reference
  *      `Coreset.local` (per-color Gonzalez(k')) on its points, emitting
  *      ≤ m·k' partial centers;
  *   2. merge (driver): the ≤ P·m·k' collected partial centers of the P
  *      partitions go through `Coreset.local` once more. That set is a few
  *      thousand points at most, so a shuffle round to regroup it by color
  *      costs more than the merge itself.
  *
  * Composability: if r* is the optimal k'-center radius of a color class,
  * each partition's Gonzalez solution covers its points within 2r*, and the
  * merge covers the partial centers within 2·(2r*) of the originals, so the
  * final set is a constant-factor k-center solution — exactly what
  * Theorem 4.2 needs from `Alg` (the constant only rescales the ε of the
  * coreset). `CoresetSpec` compares the two-round radius against the
  * single-pass reference `Coreset.local` empirically.
  */
object CoresetSpark {

  /** Distributed two-round per-color coreset of `ds`: `min(kPrime, |P(c)|)`
    * centers of every color `c`, in ascending color order.
    */
  def distributed(ds: Dataset[LabeledPoint], kPrime: Int): Array[LabeledPoint] = {
    val spark = ds.sparkSession
    import spark.implicits._
    val partial = ds.mapPartitions(it => Coreset.local(it.toArray, kPrime).iterator).collect()
    Coreset.local(partial, kPrime).sortBy(_.color)
  }
}
