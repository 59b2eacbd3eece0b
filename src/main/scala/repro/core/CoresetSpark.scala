package repro.core

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col

/** Distributed coreset construction — the Spark dataflow phase of the
  * reproduction (the `O(nk)` part of Corollary 4.3; everything downstream
  * runs on `m·k` points).
  *
  * Two-round composable k-center:
  *   1. map side (one Spark stage): each partition reads its internal rows
  *      straight into one column [[Block]] per color (no sort, no
  *      partition-wide copy) and runs Gonzalez(k') on every block, emitting
  *      ≤ m·k' partial centers — the only `LabeledPoint`s the stage creates;
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
    * centers of every color `c`, in ascending color order. A row whose
    * dimension differs from its partition's first row fails its task; the
    * collected partial centers then pass [[Instance.checkPoints]]. Each
    * failure is an `IllegalArgumentException` naming the point ids.
    */
  def distributed(ds: Dataset[LabeledPoint], kPrime: Int): Array[LabeledPoint] = {
    val sc = ds.sparkSession.sparkContext
    // Selected by name, so the ordinals below hold whatever the physical
    // column order, and a persisted `ds` is still read from its cache.
    val rows = ds.select(col("id").cast("long"), col("color").cast("int"), col("x").cast("array<double>"))
      .queryExecution.toRdd
    val prev = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(s"coreset: per-color Gonzalez k'=$kPrime")
    val partial =
      try rows.mapPartitions(it => partitionCoreset(it, kPrime)).collect()
      finally sc.setJobDescription(prev)
    Instance.checkPoints(partial)
    Coreset.local(partial, kPrime).sortBy(_.color)
  }

  /** Map side: each row goes straight into its color's [[Block]], in input
    * order, then per-color Gonzalez(k') runs on the blocks. Spark reuses the
    * row objects, so every value is copied out before the next row.
    */
  private def partitionCoreset(it: Iterator[InternalRow], kPrime: Int): Iterator[LabeledPoint] = {
    var blocks: Coreset.ByColor = null
    var d = -1
    var firstId = 0L
    while (it.hasNext) {
      val r = it.next()
      val x = r.getArray(2)
      if (d < 0) { d = x.numElements(); firstId = r.getLong(0); blocks = new Coreset.ByColor(d, 1024) }
      if (x.numElements() != d) // not `require`: its message closure would keep `x` from being scalar-replaced
        throw new IllegalArgumentException(
          s"point ${r.getLong(0)} has ${x.numElements()} coordinates, point $firstId has $d")
      val b = blocks(r.getInt(1))
      val i = b.add(r.getLong(0))
      var j = 0
      while (j < d) { b.cols(j)(i) = x.getDouble(j); j += 1 }
    }
    if (blocks == null) Iterator.empty
    else blocks.centers(kPrime).flatMap { case (c, b, cs) =>
      cs.iterator.map(i => LabeledPoint(b.ids(i), c, Array.tabulate(d)(b.cols(_)(i))))
    }
  }
}
