package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.data.Datasets

/** Coreset construction — the local reference and the two-round distributed
  * Spark pipeline. Validates sizes, per-color coverage
  * radii (composability bound), and that MFD run on the coreset preserves
  * diversity within the coreset factor.
  */
class CoresetSpec extends SparkSpec {
  import spark.implicits._

  test("local coreset size is sum of min(k', color size)") {
    val pts = TestUtil.clusteredPoints(300, 2, 3, 5, 11L)
    val counts = Points.colorCounts(pts.toSeq)
    val cs = Coreset.local(pts, 10)
    assert(cs.length == counts.values.map(math.min(10, _)).sum)
    counts.keys.foreach { c =>
      assert(cs.count(_.color == c) == math.min(10, counts(c)))
    }
  }

  test("local coreset points come from the input") {
    val pts = TestUtil.randomPoints(100, 3, 4, 13L)
    val cs = Coreset.local(pts, 5)
    val ids = pts.map(_.id).toSet
    cs.foreach(p => assert(ids.contains(p.id)))
    assert(cs.map(_.id).distinct.length == cs.length)
  }

  /** Per-color Gonzalez(k') over `groupBy`, colors in its key order. */
  private def groupByCoreset(pts: Array[LabeledPoint], kPrime: Int): Array[LabeledPoint] =
    pts.groupBy(_.color).values.flatMap(g => Gonzalez.centers(g, kPrime)).toArray

  /** Color ids far from `0 until m`: both ends of `Int`, sparse ids, and
    * six colors, past the four up to which `groupBy` keeps insertion order.
    */
  private val sparseColors = Seq(Array(Int.MinValue, Int.MaxValue), Array(-7, 0, 3, 1 << 20),
    Array(-5, 9, 1 << 30, -(1 << 30), 77, 12345))

  private def recolor(pts: Array[LabeledPoint], colors: Array[Int]): Array[LabeledPoint] =
    pts.map(p => p.copy(color = colors(p.color % colors.length)))

  test("local coreset equals per-color Gonzalez over groupBy, in groupBy's color order") {
    val rnd = new scala.util.Random(5L)
    val inputs = (0 until 60).map { t =>
      val m = 1 + t % 12
      (s"input $t (m=$m)", TestUtil.randomPoints(20 + rnd.nextInt(200), 1 + t % 3, m, 100L + t))
    } ++ sparseColors.map { cs =>
      (s"colors ${cs.mkString(",")}", recolor(TestUtil.randomPoints(300, 2, cs.length, 19L), cs))
    }
    for ((name, pts) <- inputs)
      assert(Coreset.local(pts, 4).map(_.id).toSeq == groupByCoreset(pts, 4).map(_.id).toSeq, name)
  }

  /** Spark coreset of `ds`, and the reference: per-color Gonzalez over
    * `groupBy` on each partition, the same again on the union, colors sorted.
    */
  private def sparkAndReference(ds: org.apache.spark.sql.Dataset[LabeledPoint], kPrime: Int): (Seq[Long], Seq[Long]) = {
    val perPartition = ds.rdd.glom().collect().flatMap(groupByCoreset(_, kPrime))
    (CoresetSpark.distributed(ds, kPrime).map(_.id).toSeq,
      groupByCoreset(perPartition, kPrime).sortBy(_.color).map(_.id).toSeq)
  }

  for (parts <- Seq(1, 3, 8)) {
    test(s"Spark coreset equals the merge of the per-partition local coresets, P=$parts") {
      val pts = TestUtil.clusteredPoints(2500, 3, 6, 9, 83L + parts)
      for (p <- pts +: sparseColors.map(recolor(pts, _))) {
        val ds = spark.createDataset(spark.sparkContext.parallelize(p.toSeq, parts))
        val (got, want) = sparkAndReference(ds, 7)
        assert(got == want, s"colors ${p.map(_.color).distinct.sorted.mkString(",")}")
      }
    }
  }

  test("Spark coreset with empty partitions: 5 points in 8 partitions") {
    val pts = TestUtil.randomPoints(5, 2, 2, 17L)
    val ds = spark.createDataset(spark.sparkContext.parallelize(pts.toSeq, 8))
    val (got, want) = sparkAndReference(ds, 3)
    assert(got == want)
    assert(got.sorted == Coreset.local(pts, 3).map(_.id).toSeq.sorted)
  }

  test("Spark coreset of an empty Dataset is empty") {
    assert(CoresetSpark.distributed(spark.emptyDataset[LabeledPoint], 5).isEmpty)
    val fourEmpty = spark.createDataset(spark.sparkContext.parallelize(Seq.empty[LabeledPoint], 4))
    assert(CoresetSpark.distributed(fourEmpty, 5).isEmpty)
  }

  test("Spark coreset reads columns by name, whatever their physical order") {
    val pts = TestUtil.clusteredPoints(1200, 4, 3, 6, 41L)
    val ds = spark.createDataset(spark.sparkContext.parallelize(pts.toSeq, 3))
    val reordered = ds.toDF().select("x", "color", "id").as[LabeledPoint]
    assert(reordered.columns.toSeq == Seq("x", "color", "id"))
    val a = CoresetSpark.distributed(ds, 6)
    val b = CoresetSpark.distributed(reordered, 6)
    assert(a.map(_.id).toSeq == b.map(_.id).toSeq)
    assert(a.zip(b).forall { case (p, q) => p.color == q.color && p.x.sameElements(q.x) })
  }

  test("the coreset job carries its description, and the caller's is restored") {
    val sc = spark.sparkContext
    val seen = scala.collection.mutable.ArrayBuffer[Option[String]]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = seen.synchronized {
        seen += Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description")))
      }
    }
    val ds = spark.createDataset(spark.sparkContext.parallelize(TestUtil.randomPoints(300, 2, 3, 23L).toSeq, 2))
    sc.addSparkListener(listener)
    sc.setJobDescription("caller")
    try {
      CoresetSpark.distributed(ds, 4)
      assert(sc.getLocalProperty("spark.job.description") == "caller")
      eventually(timeout(10.seconds)) {
        assert(seen.synchronized(seen.toList) == List(Some("coreset: per-color Gonzalez k'=4")))
      }
    } finally {
      sc.setJobDescription(null)
      sc.removeSparkListener(listener)
    }
  }

  /** Coverage radius of `centers` over `all`, per color. */
  private def coverRadius(all: Array[LabeledPoint], centers: Array[LabeledPoint]): Double = {
    all.groupBy(_.color).map { case (c, g) =>
      val cg = centers.filter(_.color == c)
      if (cg.isEmpty) Double.PositiveInfinity
      else g.map(p => cg.map(q => Points.dist(p.x, q.x)).min).max
    }.max
  }

  for (seed <- 1 to 4) {
    test(s"two-round distributed coreset is a constant-factor k-center solution seed=$seed") {
      val pts = TestUtil.clusteredPoints(2000, 2, 3, 8, seed * 29L)
      val ds = spark.createDataset(pts.toSeq).repartition(8)
      val kPrime = 12
      val dist = CoresetSpark.distributed(ds, kPrime)
      val local = Coreset.local(pts, kPrime)
      // The merge keeps exactly min(k', |P(c)|) distinct points per color,
      // colors in ascending order.
      Points.colorCounts(pts.toSeq).foreach { case (c, n) =>
        assert(dist.count(_.color == c) == math.min(kPrime, n), s"color $c")
      }
      assert(dist.map(_.id).distinct.length == dist.length)
      assert(dist.map(_.color).sameElements(dist.map(_.color).sorted))
      // Composability: the two-round radius is within a constant factor of
      // the single-pass radius (theory: ≤ 4·opt vs ≤ 2·opt ⇒ ratio ≤ ~4;
      // allow slack for the greedy orderings).
      val rDist = coverRadius(pts, dist)
      val rLocal = coverRadius(pts, local)
      assert(rDist <= math.max(4.0 * rLocal, 1e-9) + 1e-9,
        s"two-round radius $rDist vs local $rLocal")
    }
  }

  test("one-partition Spark coreset holds the local coreset's ids per color, colors sorted") {
    // Six colors: past four, `groupBy` no longer returns colors in ascending
    // order, so an unsorted merge shows.
    val pts = TestUtil.clusteredPoints(1500, 2, 6, 8, 71L)
    val ds = spark.createDataset(spark.sparkContext.parallelize(pts.toSeq, 1))
    val kPrime = 10
    val dist = CoresetSpark.distributed(ds, kPrime)
    def idsByColor(cs: Array[LabeledPoint]): Map[Int, Set[Long]] =
      cs.groupBy(_.color).map { case (c, g) => c -> g.map(_.id).toSet }
    assert(idsByColor(dist) == idsByColor(Coreset.local(pts, kPrime)))
    assert(dist.map(_.color).sameElements(dist.map(_.color).sorted))
  }

  for (seed <- 1 to 3) {
    test(s"MFD on coreset preserves diversity within the coreset factor seed=$seed") {
      val pts = TestUtil.clusteredPoints(800, 2, 2, 10, seed * 53L)
      val k = Map(0 -> 4, 1 -> 4)
      val cfg = MFD.Config(eps = 0.3, g = 1.0, seed = seed)
      val full = MFD.run(pts, k, cfg)
      val cs = Coreset.local(pts, 8)
      val onCore = MFD.run(cs, k, cfg)
      // Coreset is (1+eps'); with randomized rounding allow a generous 0.5.
      assert(onCore.diversity >= 0.5 * full.diversity - 1e-9,
        s"coreset div ${onCore.diversity} vs full ${full.diversity}")
    }
  }

  test("MFDSpark end-to-end returns a near-fair diverse set with timings") {
    val pts = TestUtil.clusteredPoints(3000, 2, 3, 12, 61L)
    val ds = spark.createDataset(pts.toSeq).repartition(8)
    val counts = Points.colorCounts(pts.toSeq)
    val k = counts.map { case (c, _) => c -> 5 }
    val timed = MFDSpark.run(ds, k, MFD.Config(eps = 0.4, g = 0.5))
    assert(timed.coresetSize == counts.values.map(math.min(k.values.sum, _)).sum)
    assert(timed.result.diversity > 0)
    assert(timed.coresetMillis >= 0 && timed.mwuMillis >= 0)
    // Near-fairness: at most a couple of points missing per color on average
    // behaviour; assert the hard floor of half.
    val missed = Points.missedPerColor(timed.result.selected.toSeq, k)
    missed.foreach { case (c, miss) => assert(miss <= 3, s"color $c missing $miss of 5") }
  }

  test("MFDSpark flat-DataFrame round trip and oracle-checked diversity") {
    val spec = Datasets.adult
    val df = Datasets.generate(spark, spec, 0.01)
    // At this tiny scale a rare color may be absent — clip k to what exists.
    val k = MFD.attainable(Datasets.fromFlatDF(df).collect(), Datasets.equalK(spec.m, 10))
    val timed = MFDSpark.run(Datasets.fromFlatDF(df), k, MFD.Config(eps = 0.5, g = 0.3))
    val sel = Oracle.toFlatDF(spark, timed.result.selected.toSeq)
    assert(sel.count() >= 2)
    Oracle.assertEquivalent(
      Oracle.diversityDF(sel),
      Oracle.diversitySql("sel", spec.d),
      "sel" -> sel)
  }
}
