package repro.bench

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.Datasets
import repro.exp.Experiments

/** Table 3 — dataset statistics. Prints the synthetic stand-ins' m, d, n at
  * bench scale next to the paper's n; Spark aggregates oracle-checked.
  */
class Table3DatasetStatsBench extends SparkSpec {

  test("Table 3: dataset statistics (paper vs synthetic at bench scale)") {
    Experiments.datasetStats(spark).foreach { r =>
      assert(r.m == r.spec.m, s"${r.spec.name}: m=${r.m} != ${r.spec.m}")
      assert(r.n == r.spec.n(Experiments.benchScale(r.spec)))
    }
  }

  test("Table 3: per-color histogram oracle-checked (Census)") {
    val spec = Datasets.census
    val df = Datasets.generate(spark, spec, 0.01)
    val sparkCounts = df.groupBy("color").agg(count(lit(1)).as("cnt"))
      .select(col("color").cast("string").as("color"), col("cnt"))
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT color, count(*) AS cnt FROM census GROUP BY color",
      "census" -> df.select(col("id").cast("string"), col("color").cast("string")))
  }
}
