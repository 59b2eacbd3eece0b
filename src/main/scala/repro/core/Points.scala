package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** A colored point in R^d.
  *
  * @param id    stable identifier (unique within a dataset)
  * @param color sensitive-group index in [0, m)
  * @param x     coordinates
  */
final case class LabeledPoint(id: Long, color: Int, x: Array[Double]) {
  override def toString: String = s"LabeledPoint($id, c$color, [${x.mkString(",")}])"
}

/** Points in columns, the one layout the `O(nk)` Gonzalez kernel reads:
  * point `i < n` has id `ids(i)` and coordinates `cols(j)(i)`, `j < d`.
  * Points keep the order they were added in; the arrays double when full.
  */
final class Block(d: Int, capacity: Int) {
  var ids = new Array[Long](math.max(1, capacity))
  val cols: Array[Array[Double]] = Array.fill(d)(new Array[Double](ids.length))
  var n = 0

  /** Appends point `id` and returns its index; the caller then writes its
    * coordinates into `cols(j)(index)`.
    */
  def add(id: Long): Int = {
    if (n == ids.length) grow()
    ids(n) = id; n += 1; n - 1
  }

  private def grow(): Unit = {
    ids = java.util.Arrays.copyOf(ids, 2 * n)
    var j = 0
    while (j < d) { cols(j) = java.util.Arrays.copyOf(cols(j), 2 * n); j += 1 }
  }

  def add(id: Long, x: Array[Double]): Unit = {
    val i = add(id)
    var j = 0
    while (j < d) { cols(j)(i) = x(j); j += 1 }
  }
}

/** Geometry helpers shared by every module.
  *
  * Distances are plain Euclidean over `Array[Double]`; all hot loops avoid
  * allocation; the Gonzalez kernel reads a column [[Block]]. DataFrame
  * conversions use one flat column per coordinate (`x0..x{d-1}`) so results
  * remain comparable in the DuckDB oracle, which only handles scalar columns.
  */
object Points {

  /** Squared Euclidean distance. */
  def distSq(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** Euclidean distance. */
  def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(distSq(a, b))

  def dist(a: LabeledPoint, b: LabeledPoint): Double = dist(a.x, b.x)

  /** Minimum pairwise distance of a set; 0 for a set of fewer than 2 points. */
  def diversity(s: Seq[LabeledPoint]): Double = {
    var best = Double.PositiveInfinity
    val arr = s.toArray
    var i = 0
    while (i < arr.length) {
      var j = i + 1
      while (j < arr.length) {
        val d = distSq(arr(i).x, arr(j).x)
        if (d < best) best = d
        j += 1
      }
      i += 1
    }
    if (arr.length < 2) 0.0 else math.sqrt(best)
  }

  /** Count of points per color. */
  def colorCounts(s: Seq[LabeledPoint]): Map[Int, Int] =
    s.groupBy(_.color).map { case (c, ps) => c -> ps.size }

  /** True iff `s` has at least `k(j)` points of each color `j` present in `k`. */
  def isFair(s: Seq[LabeledPoint], k: Map[Int, Int]): Boolean = {
    val counts = colorCounts(s)
    k.forall { case (c, kc) => counts.getOrElse(c, 0) >= kc }
  }

  /** Per-color shortfall `max(0, k_j - |S(c_j)|)`; the quantity in Table 4. */
  def missedPerColor(s: Seq[LabeledPoint], k: Map[Int, Int]): Map[Int, Int] = {
    val counts = colorCounts(s)
    k.map { case (c, kc) => c -> math.max(0, kc - counts.getOrElse(c, 0)) }
  }

  /** Points → flat DataFrame with columns (id, color, x0..x{d-1}). */
  def toFlatDF(spark: SparkSession, pts: Seq[LabeledPoint]): DataFrame = {
    require(pts.nonEmpty, "empty point set")
    val d = pts.head.x.length
    import spark.implicits._
    val rows = pts.map(p => (p.id, p.color, p.x.toSeq))
    val df = rows.toDF("id", "color", "x")
    val coordCols = (0 until d).map(i => element_at($"x", i + 1).as(s"x$i"))
    df.select(($"id" +: $"color" +: coordCols): _*)
  }

  /** Flat DataFrame (id, color, x0..x{d-1}) → typed Dataset of points. */
  def fromFlatDF(df: DataFrame): Dataset[LabeledPoint] = {
    val spark = df.sparkSession
    import spark.implicits._
    val d = df.columns.count(_.startsWith("x"))
    val cols = (0 until d).map(i => col(s"x$i").cast("double"))
    df.select(col("id").cast("long"), col("color").cast("int"), array(cols: _*).as("x"))
      .as[(Long, Int, Seq[Double])]
      .map { case (id, c, x) => LabeledPoint(id, c, x.toArray) }
  }

  /** Spark-SQL diversity of a (small) flat result DataFrame: min pairwise
    * distance via a self cross-join. Used so the value can be cross-checked
    * against DuckDB by the oracle.
    */
  def diversityDF(df: DataFrame): DataFrame = {
    val d = df.columns.count(_.startsWith("x"))
    val a = df.alias("a")
    val b = df.alias("b")
    val sumSq = (0 until d)
      .map(i => (col(s"a.x$i") - col(s"b.x$i")) * (col(s"a.x$i") - col(s"b.x$i")))
      .reduce(_ + _)
    a.join(b, col("a.id") < col("b.id"))
      .select(sqrt(sumSq).as("dist"))
      .agg(min(col("dist")).as("diversity"))
  }

  /** The DuckDB-side SQL equivalent of [[diversityDF]] over table `t`. */
  def diversitySql(t: String, d: Int): String = {
    val sumSq = (0 until d)
      .map(i => s"(CAST(a.x$i AS DOUBLE) - CAST(b.x$i AS DOUBLE)) * (CAST(a.x$i AS DOUBLE) - CAST(b.x$i AS DOUBLE))")
      .mkString(" + ")
    s"SELECT min(sqrt($sumSq)) AS diversity FROM $t a, $t b WHERE CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)"
  }
}
