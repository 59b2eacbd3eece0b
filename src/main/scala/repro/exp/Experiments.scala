package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, count, countDistinct, lit}
import repro.baselines._
import repro.core._
import repro.data.Datasets
import repro.stream.StreamMFD

/** Experiment runner shared by the bench suites (`bench/`) and the
  * spark-submit entry point `repro.jobs.Main`. Each public experiment method
  * reproduces one table/figure of the paper's §6 (or one cell of it), prints
  * it as a markdown table (recorded in EXPERIMENTS.md) and returns the rows
  * for the bench suites' shape assertions.
  *
  * Scaling knobs (paper → here):
  *  - data scale: per-dataset factor (small datasets kept at full n, the
  *    million-size ones at ×0.1 — DESIGN.md §4);
  *  - run cap: 120 s (paper: 30 min) — exceeded runs are reported "DNF";
  *  - repetitions: MFD-family algorithms are randomized; reps configurable.
  */
object Experiments {

  val DefaultDeadlineMs: Long = sys.env.getOrElse("BENCH_DEADLINE_MS", "120000").toLong

  /** Per-dataset scale: keep the small UCI sets at full size, scale the
    * million-size ones by BENCH_SCALE (default 0.1).
    */
  def benchScale(spec: Datasets.Spec): Double = {
    val s = sys.env.getOrElse("BENCH_SCALE", "0.1").toDouble
    if (spec.nPaper <= 150000L) math.min(1.0, s * 10) else s
  }

  /** Cached collected datasets (bench reuses across suites in one JVM). */
  private val cache = scala.collection.mutable.Map[String, Array[LabeledPoint]]()
  private val dsCache = scala.collection.mutable.Map[String, org.apache.spark.sql.Dataset[LabeledPoint]]()

  def load(spark: SparkSession, spec: Datasets.Spec): Array[LabeledPoint] =
    cache.getOrElseUpdate(spec.name, {
      Datasets.points(spark, spec, benchScale(spec)).collect().sortBy(_.id)
    })

  /** The same data as a persisted distributed Dataset (for the Spark coreset
    * pipeline) — generation is deterministic, so this matches [[load]].
    */
  def loadDS(spark: SparkSession, spec: Datasets.Spec): org.apache.spark.sql.Dataset[LabeledPoint] =
    dsCache.getOrElseUpdate(spec.name, {
      val ds = Datasets.points(spark, spec, benchScale(spec))
        .repartition(spark.sparkContext.defaultParallelism).persist()
      ds.count() // materialise so MFD timings don't include generation
      ds
    })

  /** Table 3: `m` and `n` of a synthetic stand-in at bench scale, as counted
    * by a Spark aggregate over the generated DataFrame.
    */
  final case class StatsRow(spec: Datasets.Spec, m: Long, n: Long)

  def datasetStats(spark: SparkSession): Seq[StatsRow] = {
    val rows = Datasets.all.map { spec =>
      val stats = Datasets.generate(spark, spec, benchScale(spec))
        .agg(countDistinct(col("color")), count(lit(1))).collect()(0)
      StatsRow(spec, stats.getLong(0), stats.getLong(1))
    }
    printTable("Table 3: dataset statistics", Seq("Dataset", "m", "d", "n (paper)", "n (ours)"),
      rows.map(r => Seq(r.spec.name, r.m.toString, r.spec.d.toString, r.spec.nPaper.toString, r.n.toString)))
    rows
  }

  final case class Run(algo: String, dataset: String, k: Int, diversity: Double,
                       millis: Long, dnf: Boolean, missedTotal: Double) {
    def divStr: String = if (dnf) "DNF" else f"$diversity%.3f"
    def timeStr: String = if (dnf) "DNF" else f"${millis / 1000.0}%.2f s"
  }

  private def timed[A](body: => A): (Option[A], Long) = {
    val t0 = System.nanoTime()
    try {
      val a = body
      (Some(a), (System.nanoTime() - t0) / 1000000)
    } catch {
      case _: Deadline.Exceeded => (None, (System.nanoTime() - t0) / 1000000)
    }
  }

  /** One baseline invocation with deadline + DNF accounting. */
  private def runBaseline(name: String, dataset: String, k: Map[Int, Int], kLabel: Int,
                          body: Long => Array[LabeledPoint]): Run = {
    val deadline = Deadline.in(DefaultDeadlineMs)
    val (res, ms) = timed(body(deadline))
    res match {
      case Some(sel) =>
        Run(name, dataset, kLabel, Points.diversity(sel.toSeq), ms, dnf = false,
          Points.missedPerColor(sel.toSeq, k).values.sum)
      case None => Run(name, dataset, kLabel, 0.0, ms, dnf = true, 0.0)
    }
  }

  /** `reps` end-to-end runs of `MFDSpark.run` (ε = 0.3) on `spec`'s
    * Dataset, run `r` with seed `seedStep·r`: the runs that met `deadline`.
    * `paper` runs MFD's fixed `g·T` iterations (see `MFD.Config`).
    */
  private def mfdRuns(spark: SparkSession, spec: Datasets.Spec, k: Map[Int, Int], g: Double,
                      reps: Int, seedStep: Long, deadline: Long, paper: Boolean): Seq[MFDSpark.Timed] = {
    val ds = loadDS(spark, spec)
    (1 to reps).flatMap { rep =>
      val cfg = MFD.Config(eps = 0.3, g = g, seed = seedStep * rep, deadlineNanos = deadline, paper = paper)
      try Some(MFDSpark.run(ds, k, cfg))
      catch { case _: Deadline.Exceeded => None }
    }
  }

  private def millis(t: MFDSpark.Timed): Long = t.coresetMillis + t.mwuMillis

  /** MFD via the Spark coreset pipeline: `reps` runs with distinct seeds,
    * averaged over those that met the deadline.
    */
  def runMFD(spark: SparkSession, spec: Datasets.Spec, k: Map[Int, Int], kLabel: Int,
             g: Double, reps: Int): Run = {
    val runs = mfdRuns(spark, spec, k, g, reps, 1000L, Deadline.in(DefaultDeadlineMs), paper = false)
    if (runs.isEmpty) Run(s"MFD-$g", spec.name, kLabel, 0.0, DefaultDeadlineMs, dnf = true, 0.0)
    else {
      val ok = runs.length
      val divSum = runs.map(_.result.diversity).sum
      val missSum = runs.map(t => Points.missedPerColor(t.result.selected.toSeq, k).values.sum.toDouble).sum
      Run(s"MFD-$g", spec.name, kLabel, divSum / ok, runs.map(millis).sum / ok, dnf = false, missSum / ok)
    }
  }

  /** The (dataset, k) cells of Fig. 5/6 (equal k_j) or Fig. 7/8
    * (proportional). The paper finds the proportional case identical in
    * shape, so one small and one large dataset suffice there.
    */
  def endToEndCells(proportional: Boolean): Seq[(Datasets.Spec, Int)] =
    if (proportional) for (spec <- Seq(Datasets.adult, Datasets.popsim1M); k <- Seq(20, 100)) yield (spec, k)
    else for (spec <- Seq(Datasets.adult, Datasets.census, Datasets.popsim1M, Datasets.popsim);
              k <- Seq(20, 60, 100)) yield (spec, k)

  /** The paper's Fig. 5/6 (equal k_j) / Fig. 7/8 (proportional) comparison
    * on one dataset and one k: every algorithm, diversity + runtime.
    */
  def endToEnd(spark: SparkSession, spec: Datasets.Spec, kTotal: Int,
               proportional: Boolean, mfdReps: Int = 3): Seq[Run] = {
    val pts = load(spark, spec)
    val kRaw = if (proportional) Datasets.proportionalK(spec, kTotal) else Datasets.equalK(spec.m, kTotal)
    val k = MFD.attainable(pts, kRaw)
    val rows = scala.collection.mutable.ArrayBuffer[Run]()
    rows += runMFD(spark, spec, k, kTotal, g = 0.3, reps = mfdReps)
    rows += runBaseline("FairFlow", spec.name, k, kTotal, d => FairFlow.select(pts, k, d))
    rows += runBaseline("FairGreedyFlow", spec.name, k, kTotal, d => FairGreedyFlow.select(pts, k, d))
    rows += runBaseline("FMMD-S", spec.name, k, kTotal, d => FMMDS.select(pts, k, deadlineNanos = d))
    rows += runBaseline("SFDM-2(e=.15)", spec.name, k, kTotal, d => SFDM2.select(pts, k, 0.15, d))
    rows += runBaseline("SFDM-2(e=.75)", spec.name, k, kTotal, d => SFDM2.select(pts, k, 0.75, d))
    rows += runBaseline("Random", spec.name, k, kTotal, _ => RandomSelect.select(pts, k))
    val (fig, kind) = if (proportional) ("7/8", "proportional") else ("5/6", "equal")
    printTable(s"Fig $fig (${spec.name}, k=$kTotal, $kind): diversity & runtime",
      Seq("Algorithm", "diversity", "time", "missed"),
      rows.toSeq.map(r => Seq(r.algo, r.divStr, r.timeStr, f"${r.missedTotal}%.1f")))
    rows.toSeq
  }

  /** Table 4: average missed points per color for MFD-g, plus Fig. 3/4 rows
    * (diversity and runtime per g). Both run MFD in paper mode, so they
    * measure the paper's fixed `g·T` iterations.
    */
  final case class FairnessRow(dataset: String, k: Int, g: Double,
                               missedPerColor: Map[Int, Double], missedTotal: Double,
                               diversity: Double, millis: Long)

  val Table4Specs: Seq[Datasets.Spec] = Seq(Datasets.diabetes, Datasets.popsim)

  /** Table 4 on one dataset: MFD-0.1 and MFD-0.3, k ∈ {20..100}, 5 runs. */
  def table4(spark: SparkSession, spec: Datasets.Spec): Seq[FairnessRow] = {
    val rows = fairnessSweep(spark, spec, Seq(20, 40, 60, 80, 100), Seq(0.1, 0.3), reps = 5)
    val colors = 0 until spec.m
    printTable(s"Table 4 (${spec.name}): avg missed per color, 5 runs",
      Seq("Dataset", "k", "g") ++ colors.map(c => s"c$c") :+ "total",
      rows.map(r => Seq(r.dataset, r.k.toString, r.g.toString) ++
        colors.map(c => f"${r.missedPerColor.getOrElse(c, 0.0)}%.1f") :+ f"${r.missedTotal}%.1f"))
    rows
  }

  val GSweepKs: Seq[Int] = Seq(20, 60, 100)

  /** Fig. 3/4: the early-stopping g sweep on Adult, 3 runs per cell. */
  def gSweep(spark: SparkSession): Seq[FairnessRow] = {
    val rows = fairnessSweep(spark, Datasets.adult, GSweepKs, Seq(0.1, 0.3, 0.5, 0.7), reps = 3)
    printTable("Fig 3/4 (Adult): diversity & runtime vs g, 3 runs",
      Seq("k", "g", "diversity", "time (ms)", "missed total"),
      rows.map(r => Seq(r.k.toString, r.g.toString, f"${r.diversity}%.3f",
        r.millis.toString, f"${r.missedTotal}%.1f")))
    rows
  }

  private def fairnessSweep(spark: SparkSession, spec: Datasets.Spec, ks: Seq[Int],
                            gs: Seq[Double], reps: Int): Seq[FairnessRow] = {
    val pts = load(spark, spec)
    for (kTotal <- ks; g <- gs) yield {
      val k = MFD.attainable(pts, Datasets.equalK(spec.m, kTotal))
      val runs = mfdRuns(spark, spec, k, g, reps, 777L, Deadline.None, paper = true)
      val missed = scala.collection.mutable.Map[Int, Double]().withDefaultValue(0.0)
      runs.foreach { t =>
        Points.missedPerColor(t.result.selected.toSeq, k).foreach { case (c, miss) =>
          missed(c) += miss.toDouble / reps
        }
      }
      FairnessRow(spec.name, kTotal, g, missed.toMap, missed.values.sum,
        runs.map(_.result.diversity).sum / reps, runs.map(millis).sum / reps)
    }
  }

  /** Fig. 10: streaming comparison on the Beer dataset — per-item update
    * time, post-processing time, diversity, stored items.
    */
  final case class StreamRow(algo: String, k: Int, updateMicros: Double,
                             postMillis: Long, diversity: Double, stored: Int)

  val StreamKs: Seq[Int] = Seq(10, 20, 50)

  def streaming(spark: SparkSession, kTotal: Int): Seq[StreamRow] = {
    val spec = Datasets.beer
    val pts = load(spark, spec)
    val k = MFD.attainable(pts, Datasets.equalK(spec.m, kTotal))
    val rows = scala.collection.mutable.ArrayBuffer[StreamRow]()

    // StreamMFD.
    {
      val s = new StreamMFD(k, MFD.Config(eps = 0.5, g = 0.3))
      val t0 = System.nanoTime()
      pts.foreach(s.insert)
      val updNs = System.nanoTime() - t0
      val t1 = System.nanoTime()
      val res = s.postProcess()
      val postMs = (System.nanoTime() - t1) / 1000000
      rows += StreamRow("StreamMFD", kTotal, updNs / 1000.0 / pts.length, postMs,
        res.diversity, s.storedCount)
    }
    // SFDM-2 at both epsilons (bounds assumed known pre-stream, as in [50]).
    for (eps <- Seq(0.15, 0.75)) {
      val algo = SFDM2.create(pts, k, eps)
      val t0 = System.nanoTime()
      pts.foreach(algo.insert)
      val updNs = System.nanoTime() - t0
      val t1 = System.nanoTime()
      val sel = algo.postProcess()
      val postMs = (System.nanoTime() - t1) / 1000000
      rows += StreamRow(s"SFDM-2(e=$eps)", kTotal, updNs / 1000.0 / pts.length, postMs,
        Points.diversity(sel.toSeq), algo.storedCount)
    }
    printTable(s"Fig 10 (Beer, k=$kTotal): update / post-process / diversity",
      Seq("Algorithm", "update (us/item)", "post (ms)", "diversity", "stored"),
      rows.toSeq.map(r => Seq(r.algo, f"${r.updateMicros}%.2f", r.postMillis.toString,
        f"${r.diversity}%.3f", r.stored.toString)))
    rows.toSeq
  }

  /** Markdown-ish table printer used by every experiment. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    println(s"\n### $title")
    println(header.mkString("| ", " | ", " |"))
    println(header.map(_ => "---").mkString("| ", " | ", " |"))
    rows.foreach(r => println(r.mkString("| ", " | ", " |")))
  }
}
