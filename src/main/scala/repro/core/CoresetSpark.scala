package repro.core

import org.apache.spark.sql.Dataset

/** Distributed coreset construction — the Spark dataflow phase of the
  * reproduction (the `O(nk)` part of Corollary 4.3; everything downstream
  * runs on `m·k` points).
  *
  * Two-round composable k-center:
  *   1. map side: each partition runs per-color Gonzalez(k') on its local
  *      points (`mapPartitions`), emitting ≤ m·k' partial centers;
  *   2. reduce side: partial centers are shuffled by color
  *      (`groupByKey.flatMapGroups`) and merged with a second Gonzalez(k').
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

  /** Distributed two-round per-color coreset of `ds`. Returns (collected)
    * centers — by construction at most `m·kPrime` points.
    */
  def distributed(ds: Dataset[LabeledPoint], kPrime: Int): Array[LabeledPoint] = {
    val spark = ds.sparkSession
    import spark.implicits._
    val partial: Dataset[LabeledPoint] = ds.mapPartitions { it =>
      val pts = it.toArray
      pts.groupBy(_.color).valuesIterator.flatMap(g => Gonzalez.centers(g, kPrime))
    }
    partial
      .groupByKey(_.color)
      .flatMapGroups { (_, it) => Gonzalez.centers(it.toArray, kPrime).iterator }
      .collect()
  }
}
