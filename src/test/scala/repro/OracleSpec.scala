package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle rejects wrong answers: each test first shows the oracle
  * accepts the right frame, then that one wrong row, value or alias fails it.
  */
class OracleSpec extends SparkSpec {

  private lazy val pts = Oracle.toFlatDF(spark, TestUtil.randomPoints(30, 2, 3, 41L).toSeq)

  test("oracle rejects a Spark frame with one row dropped") {
    val counts = pts.groupBy("color").agg(count(lit(1)).as("cnt"))
      .select(col("color").cast("string").as("color"), col("cnt"))
    val sql = "SELECT color, count(*) AS cnt FROM pts GROUP BY color"
    assert(counts.count() == 3)
    Oracle.assertEquivalent(counts, sql, "pts" -> pts)
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(counts.filter(col("color") =!= "0"), sql, "pts" -> pts))
    assert(e.getMessage.contains("result mismatch"))
  }

  test("oracle rejects a value changed by more than its 6-decimal canonical form") {
    val div = Oracle.diversityDF(pts)
    val sql = Oracle.diversitySql("pts", 2)
    Oracle.assertEquivalent(div, sql, "pts" -> pts)
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(div.select((col("diversity") + 1e-5).as("diversity")), sql, "pts" -> pts))
    assert(e.getMessage.contains("result mismatch"))
  }

  test("oracle rejects a column alias that differs from the SQL's") {
    val div = Oracle.diversityDF(pts)
    val sql = Oracle.diversitySql("pts", 2)
    Oracle.assertEquivalent(div, sql, "pts" -> pts)
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(div.withColumnRenamed("diversity", "div"), sql, "pts" -> pts))
    assert(e.getMessage.contains("column mismatch"))
  }
}
