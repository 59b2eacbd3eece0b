package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Points

/** Synthetic dataset generators: shapes match Table 3 specs (m, d, scaled n),
  * color marginals approximate the configured skew, generation is
  * deterministic, and the relational summaries are DuckDB-oracle-checked.
  */
class DatasetsSpec extends SparkSpec {

  for (spec <- Datasets.all) {
    test(s"${spec.name}: schema and row count at test scale") {
      val df = Datasets.generate(spark, spec, 0.005)
      assert(df.columns.toSeq ==
        Seq("id", "color") ++ (0 until spec.d).map(i => s"x$i"))
      assert(df.count() == spec.n(0.005))
    }

    test(s"${spec.name}: every color is present and within [0, m)") {
      val df = Datasets.generate(spark, spec, 0.01)
      val colors = df.select("color").distinct().collect().map(_.getInt(0)).sorted
      assert(colors.head >= 0 && colors.last < spec.m)
      assert(colors.length == spec.m, s"expected ${spec.m} colors, got ${colors.length}")
    }

    test(s"${spec.name}: deterministic generation") {
      val a = Datasets.generate(spark, spec, 0.002).orderBy("id").collect()
      val b = Datasets.generate(spark, spec, 0.002).orderBy("id").collect()
      assert(a.sameElements(b))
    }
  }

  test("color marginal approximates the configured skew (Popsim)") {
    val spec = Datasets.popsim
    val df = Datasets.generate(spark, spec, 0.02)
    val n = df.count().toDouble
    val counts = df.groupBy("color").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    spec.colorProbs.zipWithIndex.foreach { case (p, c) =>
      val got = counts.getOrElse(c, 0L) / n
      assert(math.abs(got - p) < 0.03, s"color $c marginal $got vs $p")
    }
  }

  test("per-color counts oracle-checked against DuckDB (Adult)") {
    val df = Datasets.generate(spark, Datasets.adult, 0.02)
    val sparkCounts = df.groupBy("color").agg(count(lit(1)).as("cnt"))
      .select(col("color").cast("string").as("color"), col("cnt"))
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT color, count(*) AS cnt FROM adult GROUP BY color",
      "adult" -> df.select(col("id").cast("string"), col("color").cast("string")))
  }

  test("coordinate range summary oracle-checked against DuckDB (Beer)") {
    val df = Datasets.generate(spark, Datasets.beer, 0.002)
    val sparkAgg = df.agg(
      round(min(col("x0")), 4).as("mn"),
      round(max(col("x0")), 4).as("mx"),
      count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT round(min(CAST(x0 AS DOUBLE)), 4) AS mn, round(max(CAST(x0 AS DOUBLE)), 4) AS mx, count(*) AS cnt FROM beer",
      "beer" -> df)
  }

  test("points() yields typed LabeledPoints matching the flat frame") {
    val spec = Datasets.diabetes
    val flat = Datasets.generate(spark, spec, 0.002).orderBy("id").collect()
    val typed = Datasets.points(spark, spec, 0.002).collect().sortBy(_.id)
    assert(flat.length == typed.length)
    flat.zip(typed).foreach { case (row, p) =>
      assert(row.getLong(0) == p.id)
      assert(row.getInt(1) == p.color)
      (0 until spec.d).foreach(j => assert(row.getDouble(2 + j) == p.x(j)))
    }
  }

  test("equalK distributes k over colors, summing exactly") {
    assert(Datasets.equalK(5, 100).values.sum == 100)
    assert(Datasets.equalK(5, 100) == (0 until 5).map(_ -> 20).toMap)
    assert(Datasets.equalK(3, 10).values.sum == 10)
    assert(Datasets.equalK(14, 20).values.sum == 20)
    assert(Datasets.equalK(14, 20).values.forall(v => v == 1 || v == 2))
  }

  test("proportionalK follows the marginal, keeps every color >= 1, sums to k") {
    for (spec <- Datasets.all; k <- Seq(20, 60, 100)) {
      val kj = Datasets.proportionalK(spec, k)
      assert(kj.values.sum == k, s"${spec.name} k=$k sums to ${kj.values.sum}")
      assert(kj.values.forall(_ >= 1))
      // The largest class gets the largest k_j.
      val largest = spec.colorProbs.zipWithIndex.maxBy(_._1)._2
      assert(kj(largest) == kj.values.max)
    }
    // k < m: some color would get k_j = 0.
    for (spec <- Datasets.all)
      assertThrows[IllegalArgumentException](Datasets.proportionalK(spec, spec.m - 1))
  }

  test("clusters produce non-trivial spatial spread") {
    val df = Datasets.generate(spark, Datasets.popsim, 0.005)
    val stats = df.agg(stddev(col("x0")).as("s0"), stddev(col("x1")).as("s1")).collect()(0)
    assert(stats.getDouble(0) > 5.0 && stats.getDouble(1) > 5.0)
  }
}
