package repro.data

import org.apache.spark.sql.{Column, DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.LabeledPoint

/** Synthetic stand-ins for the paper's six evaluation datasets (Table 3).
  *
  * The real datasets (UCI Adult/Diabetes/Census, Popsim, BeerAdvocate) are
  * not available offline; each generator preserves the properties FairDiv
  * algorithms are sensitive to — the number of colors `m`, dimension `d`,
  * the color-frequency skew, and spatial cluster structure (points are a
  * Gaussian mixture over `clusters` pseudo-random centers in `[0,100]^d`,
  * with colors drawn from the dataset's skewed marginal) — while `n` scales
  * with a factor (bench 0.1, tests 0.01). Substitution documented in
  * DESIGN.md §4. Everything is Spark-SQL (`rand`/`randn` with fixed seeds),
  * so generation is deterministic and runs as a distributed dataflow.
  */
object Datasets {

  /** @param colorProbs marginal color distribution (length m, sums to 1) */
  final case class Spec(
      name: String,
      d: Int,
      nPaper: Long,
      colorProbs: Array[Double],
      clusters: Int,
      sigma: Double,
      seed: Long
  ) {
    def m: Int = colorProbs.length
    def n(scale: Double): Long = math.max(10L, (nPaper * scale).toLong)
  }

  private def skew(m: Int, alpha: Double): Array[Double] = {
    val w = (1 to m).map(j => 1.0 / math.pow(j, alpha))
    val s = w.sum
    w.map(_ / s).toArray
  }

  // Color skews approximate the real datasets' group marginals
  // (e.g. Popsim race ≈ 58/17/14/6/5 %).
  val adult     = Spec("Adult",     d = 6, nPaper = 32561L,
    colorProbs = Array(0.30, 0.22, 0.12, 0.09, 0.07, 0.06, 0.05, 0.04, 0.03, 0.02),
    clusters = 25, sigma = 6.0, seed = 101L)
  val diabetes  = Spec("Diabetes",  d = 8, nPaper = 101763L,
    colorProbs = Array(0.28, 0.27, 0.25, 0.20), clusters = 30, sigma = 7.0, seed = 202L)
  val census    = Spec("Census",    d = 6, nPaper = 2426116L,
    colorProbs = skew(14, 0.8), clusters = 40, sigma = 6.0, seed = 303L)
  val popsim    = Spec("Popsim",    d = 2, nPaper = 4110608L,
    colorProbs = Array(0.58, 0.17, 0.14, 0.06, 0.05), clusters = 60, sigma = 2.5, seed = 404L)
  val popsim1M  = Spec("Popsim_1M", d = 2, nPaper = 821804L,
    colorProbs = Array(0.58, 0.17, 0.14, 0.06, 0.05), clusters = 60, sigma = 2.5, seed = 505L)
  val beer      = Spec("Beer",      d = 6, nPaper = 1518829L,
    colorProbs = Array(0.50, 0.35, 0.15), clusters = 20, sigma = 8.0, seed = 606L)

  val all: Seq[Spec] = Seq(adult, diabetes, census, popsim, popsim1M, beer)

  /** Flat DataFrame (id, color, x0..x{d-1}) at `scale` × the paper's n. */
  def generate(spark: SparkSession, spec: Spec, scale: Double): DataFrame = {
    val n = spec.n(scale)
    val base = spark.range(n).toDF("id")
    val s = spec.seed
    // Cluster id, then a color from the skewed marginal.
    val withCluster = base.withColumn("cluster", (rand(s) * spec.clusters).cast("int"))
    // Materialise the color draw into a column before branching on it: a
    // rand() expression referenced inside a short-circuiting when-chain
    // advances its per-partition RNG stream only on the rows that reach it,
    // desynchronising the branches and skewing the marginal.
    val withR = withCluster.withColumn("cr", rand(s + 1))
    val cdf = spec.colorProbs.scanLeft(0.0)(_ + _).tail
    val colorExpr: Column = {
      var e: Column = lit(spec.m - 1)
      // Build the when-chain from the last threshold down so earlier
      // thresholds take precedence.
      for (j <- spec.m - 2 to 0 by -1) e = when(col("cr") < cdf(j), lit(j)).otherwise(e)
      e
    }
    val withColor = withR.withColumn("color", colorExpr.cast("int")).drop("cr")
    // Pseudo-random cluster centers in [0,100]^d, deterministic in cluster id.
    val coords = (0 until spec.d).map { j =>
      val center = (sin(col("cluster") * lit(12.9898 + j * 3.7) + lit(spec.seed % 97 + j)) * 0.5 + 0.5) * 100.0
      (center + randn(s + 10 + j) * spec.sigma).as(s"x$j")
    }
    withColor.select((col("id") +: col("color") +: coords): _*)
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

  /** Typed dataset of points: [[generate]] through [[fromFlatDF]]. */
  def points(spark: SparkSession, spec: Spec, scale: Double): Dataset[LabeledPoint] =
    fromFlatDF(generate(spark, spec, scale))

  /** Equal per-color bounds `k_j = ⌈k/m⌉·…` — the paper's "equal" setting
    * uses k_j = k/m; we distribute the remainder over the first colors so
    * the bounds always sum to exactly k.
    */
  def equalK(m: Int, k: Int): Map[Int, Int] = {
    val base = k / m
    val rem = k % m
    (0 until m).map(j => j -> (base + (if (j < rem) 1 else 0))).toMap
  }

  /** Proportional bounds `k_j = round(k·|P(c_j)|/n)` from the spec marginal,
    * keeping every color ≥ 1 and the total = k; so k must be at least m.
    */
  def proportionalK(spec: Spec, k: Int): Map[Int, Int] = {
    require(k >= spec.m, s"${spec.name}: k=$k < m=${spec.m} cannot give every color k_j >= 1")
    val raw = spec.colorProbs.map(p => math.max(1, math.round(p * k).toInt))
    var total = raw.sum
    // Trim or pad the largest classes until the total is exactly k.
    val idx = raw.indices.sortBy(-spec.colorProbs(_))
    var i = 0
    while (total != k) {
      val j = idx(i % idx.length)
      if (total > k && raw(j) > 1) { raw(j) -= 1; total -= 1 }
      else if (total < k) { raw(j) += 1; total += 1 }
      i += 1
    }
    raw.zipWithIndex.map { case (kj, j) => j -> kj }.toMap
  }
}
