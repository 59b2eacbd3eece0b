package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.{FMMDS, FairFlow, FairGreedyFlow, RandomSelect, SFDM2}
import repro.range.QFairDiv
import repro.stream.StreamMFD

/** The FairDiv input contract (paper §2) that [[Instance]] checks, and its
  * rejections at every entry point: each throws an
  * `IllegalArgumentException` that names the color or the point id.
  */
class InstanceSpec extends SparkSpec {
  import spark.implicits._

  /** The `IllegalArgumentException` `run` throws, itself or as a cause (a
    * Spark task's exception comes back as the cause of a `SparkException`);
    * fails the test when there is none.
    */
  private def rejection(where: String)(run: => Any): IllegalArgumentException = {
    val thrown = try { run; None } catch { case t: Throwable => Some(t) }
    Iterator.iterate(thrown.orNull)(_.getCause).takeWhile(_ != null)
      .collectFirst { case e: IllegalArgumentException => e }
      .getOrElse(fail(s"$where: no IllegalArgumentException, got ${thrown.getOrElse("a result")}"))
  }

  /** 12 points, ids 9000–9011, colors 31 and 57 alternating (six each), d = 2. */
  private val good = TestUtil.randomPoints(12, 2, 1, 41L).map(p => LabeledPoint(9000 + p.id, if (p.id % 2 == 0) 31 else 57, p.x))
  /** Σk_j = 6 ≥ each color's count, so every sketch and coreset on the way keeps every point. */
  private val k = Map(31 -> 3, 57 -> 3)

  private def withPoint(i: Int, p: LabeledPoint): Array[LabeledPoint] = good.updated(i, p)

  /** (case, points, k, what the message must name) */
  private val cases: Seq[(String, Array[LabeledPoint], Map[Int, Int], String)] = Seq(
    ("k_j < 0", good, Map(31 -> 3, 57 -> -2), "57"),
    ("Σk_j = 0", good, Map(31 -> 0, 57 -> 0), "57"),
    ("a NaN coordinate", withPoint(4, good(4).copy(x = Array(Double.NaN, 1.0))), k, "9004"),
    ("a +∞ coordinate", withPoint(7, good(7).copy(x = Array(1.0, Double.PositiveInfinity))), k, "9007"),
    ("one 3-d point among 2-d points", withPoint(5, good(5).copy(x = good(5).x :+ 3.0)), k, "9005"),
    ("a duplicate id", withPoint(9, good(9).copy(id = 9002)), k, "9002")
  )

  private val entryPoints: Seq[(String, (Array[LabeledPoint], Map[Int, Int]) => Any)] = Seq(
    "MFD.run" -> ((p, kk) => MFD.run(p, kk)),
    "Sweep.fallback" -> ((p, kk) => Sweep.fallback(p, kk)),
    "FairFlow" -> ((p, kk) => FairFlow.select(p, kk)),
    "FairGreedyFlow" -> ((p, kk) => FairGreedyFlow.select(p, kk)),
    "FMMD-S" -> ((p, kk) => FMMDS.select(p, kk)),
    "SFDM-2" -> ((p, kk) => SFDM2.select(p, kk, 0.5)),
    "Random" -> ((p, kk) => RandomSelect.select(p, kk)),
    "StreamMFD.postProcess" -> { (p, kk) =>
      val s = new StreamMFD(kk); p.foreach(s.insert); s.postProcess()
    },
    "QFairDiv" -> ((p, kk) => new QFairDiv(p, kMax = 6).query(Array(-1.0, -1.0), Array(200.0, 200.0), kk)),
    "MFDSpark.run" -> ((p, kk) => MFDSpark.run(spark.createDataset(spark.sparkContext.parallelize(p.toSeq, 3)), kk))
  )

  test("the well-formed table input passes every entry point") {
    for ((name, run) <- entryPoints) run(good, k)
  }

  for ((label, pts, kk, named) <- cases) {
    test(s"$label is rejected with a named IllegalArgumentException at every entry point") {
      for ((name, run) <- entryPoints) {
        val e = rejection(name)(run(pts, kk))
        assert(e.getMessage.contains(named), s"$name: ${e.getMessage}")
      }
    }
  }

  test("MFDSpark.run names a NaN row at any position, for Σk_j = 3 and any partition count") {
    val pts = TestUtil.randomPoints(3000, 2, 2, 43L)
    for (row <- Seq(0, 1, 777, 2999); parts <- Seq(1, 3, 8)) {
      val bad = pts.updated(row, pts(row).copy(x = Array(pts(row).x(0), Double.NaN)))
      val ds = spark.createDataset(spark.sparkContext.parallelize(bad.toSeq, parts))
      val e = rejection(s"row $row, $parts partitions")(MFDSpark.run(ds, Map(0 -> 2, 1 -> 1)))
      assert(e.getMessage.contains(s"point $row "), s"row $row, $parts partitions: ${e.getMessage}")
    }
  }

  test("an instance holds k's colors in k's order, their k_j, Σk_j and each color's indices in input order") {
    val pts = Array(LabeledPoint(5, 2, Array(0.0)), LabeledPoint(6, 1, Array(1.0)), LabeledPoint(7, 2, Array(2.0)),
      LabeledPoint(8, 4, Array(3.0)))
    val kk = Map(2 -> 1, 1 -> 0, 3 -> 2) // color 3 absent, color 4 unconstrained
    val in = new Instance(pts, kk)
    assert(in.colors.toSeq == kk.keys.toSeq)
    assert(in.kOf.toSeq == kk.keys.toSeq.map(kk))
    assert(in.kTotal == 3)
    assert(in.colors.indices.map(j => in.colors(j) -> in.colorIdx(j).toSeq).toMap ==
      Map(2 -> Seq(0, 2), 1 -> Seq(1), 3 -> Seq()))
    assert(new Instance(Array.empty, Map(0 -> 1)).colorIdx.toSeq.map(_.length) == Seq(0))
  }
}
