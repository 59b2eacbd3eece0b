package repro.exp

import org.apache.spark.sql.{Dataset, SparkSession}
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
  * Every cell runs one protocol: the dataset is generated once per JVM (one
  * persisted Dataset for `MFDSpark.run`, the same points collected for the
  * baselines), each run goes through one deadline wrapper, and a cell
  * reports the mean over its finished runs.
  *
  * Scaling knobs (paper → here):
  *  - data scale: per-dataset factor (small datasets kept at full n, the
  *    million-size ones at ×0.1 — DESIGN.md §4);
  *  - run cap: 120 s (paper: 30 min) — exceeded runs are reported "DNF";
  *  - repetitions: MFD is randomized, so an end-to-end cell averages 3 runs,
  *    Table 4 5 and Fig. 3/4 3; a baseline runs once.
  */
object Experiments {

  private val DeadlineMs: Long = sys.env.getOrElse("BENCH_DEADLINE_MS", "120000").toLong

  /** Per-dataset scale: keep the small UCI sets at full size, scale the
    * million-size ones by BENCH_SCALE (default 0.1).
    */
  def benchScale(spec: Datasets.Spec): Double = {
    val s = sys.env.getOrElse("BENCH_SCALE", "0.1").toDouble
    if (spec.nPaper <= 150000L) math.min(1.0, s * 10) else s
  }

  /** A dataset at bench scale: the persisted Dataset `MFDSpark.run` reads,
    * and the same points collected from it, sorted by id, for the baselines.
    */
  private final case class Data(ds: Dataset[LabeledPoint], pts: Array[LabeledPoint])

  /** One generation per dataset, reused across suites in one JVM. */
  private val cache = scala.collection.mutable.Map[String, Data]()

  private def dataset(spark: SparkSession, spec: Datasets.Spec): Data =
    cache.getOrElseUpdate(spec.name, {
      val ds = Datasets.points(spark, spec, benchScale(spec))
        .repartition(spark.sparkContext.defaultParallelism).persist()
      // Collecting materialises the cache, so MFD timings exclude generation.
      Data(ds, ds.collect().sortBy(_.id))
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

  /** `body` under `deadline` (a [[Deadline]] instant): its result, None when
    * the deadline passed (a DNF), and its wall time in ms.
    */
  private def timed[A](deadline: Long)(body: Long => A): (Option[A], Long) = {
    val t0 = System.nanoTime()
    val res = try Some(body(deadline)) catch { case _: Deadline.Exceeded => None }
    (res, (System.nanoTime() - t0) / 1000000)
  }

  private final case class Mean(diversity: Double, millis: Long, missed: Map[Int, Double]) {
    def missedTotal: Double = missed.values.sum
  }

  /** The one average over a cell's finished runs, each a (selection, ms)
    * pair: mean diversity, mean time and mean missed points per color of `k`.
    */
  private def mean(runs: Seq[(Array[LabeledPoint], Long)], k: Map[Int, Int]): Mean = {
    val missed = runs.map { case (sel, _) => Points.missedPerColor(sel.toSeq, k) }
    Mean(runs.map { case (sel, _) => Points.diversity(sel.toSeq) }.sum / runs.length,
      runs.map(_._2).sum / runs.length,
      k.keys.map(c => c -> missed.map(_(c)).sum.toDouble / runs.length).toMap)
  }

  /** `reps` end-to-end runs of `MFDSpark.run` (ε = 0.3) on `ds`, run `r`
    * with seed `seedStep·r`, all under one `deadline`: the selection and
    * the coreset + MWU time of each run that finished. `paper` runs MFD's
    * fixed `g·T` iterations (see `MFD.Config`).
    */
  private def mfdRuns(ds: Dataset[LabeledPoint], k: Map[Int, Int], g: Double, reps: Int,
                      seedStep: Long, deadline: Long, paper: Boolean): Seq[(Array[LabeledPoint], Long)] =
    (1 to reps).flatMap { rep =>
      timed(deadline) { d =>
        MFDSpark.run(ds, k, MFD.Config(eps = 0.3, g = g, seed = seedStep * rep, deadlineNanos = d, paper = paper))
      }._1.map(t => (t.result.selected, t.coresetMillis + t.mwuMillis))
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
    * on one dataset and one k: MFD-0.3 (3 runs, one deadline for the three)
    * and every baseline (one run, its own deadline), diversity + runtime.
    */
  def endToEnd(spark: SparkSession, spec: Datasets.Spec, kTotal: Int, proportional: Boolean): Seq[Run] = {
    val data = dataset(spark, spec)
    val pts = data.pts
    val kRaw = if (proportional) Datasets.proportionalK(spec, kTotal) else Datasets.equalK(spec.m, kTotal)
    val k = MFD.attainable(pts, kRaw)
    // A row is the mean of its finished runs, or DNF when none finished.
    def row(algo: String, runs: Seq[(Array[LabeledPoint], Long)]): Run =
      if (runs.isEmpty) Run(algo, spec.name, kTotal, 0.0, DeadlineMs, dnf = true, 0.0)
      else { val a = mean(runs, k); Run(algo, spec.name, kTotal, a.diversity, a.millis, dnf = false, a.missedTotal) }
    def baseline(algo: String)(select: Long => Array[LabeledPoint]): Run = {
      val (sel, ms) = timed(Deadline.in(DeadlineMs))(select)
      row(algo, sel.map(_ -> ms).toSeq)
    }
    val rows = Seq(
      row("MFD-0.3", mfdRuns(data.ds, k, 0.3, 3, 1000L, Deadline.in(DeadlineMs), paper = false)),
      baseline("FairFlow")(FairFlow.select(pts, k, _)),
      baseline("FairGreedyFlow")(FairGreedyFlow.select(pts, k, _)),
      baseline("FMMD-S")(d => FMMDS.select(pts, k, deadlineNanos = d)),
      baseline("SFDM-2(e=.15)")(SFDM2.select(pts, k, 0.15, _)),
      baseline("SFDM-2(e=.75)")(SFDM2.select(pts, k, 0.75, _)),
      baseline("Random")(_ => RandomSelect.select(pts, k)))
    val (fig, kind) = if (proportional) ("7/8", "proportional") else ("5/6", "equal")
    printTable(s"Fig $fig (${spec.name}, k=$kTotal, $kind): diversity & runtime",
      Seq("Algorithm", "diversity", "time", "missed"),
      rows.map(r => Seq(r.algo, r.divStr, r.timeStr, f"${r.missedTotal}%.1f")))
    rows
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

  /** Paper-mode MFD on every (k, g) cell, `reps` runs without a deadline. */
  private def fairnessSweep(spark: SparkSession, spec: Datasets.Spec, ks: Seq[Int],
                            gs: Seq[Double], reps: Int): Seq[FairnessRow] = {
    val data = dataset(spark, spec)
    for (kTotal <- ks; g <- gs) yield {
      val k = MFD.attainable(data.pts, Datasets.equalK(spec.m, kTotal))
      val a = mean(mfdRuns(data.ds, k, g, reps, 777L, Deadline.None, paper = true), k)
      FairnessRow(spec.name, kTotal, g, a.missed, a.missedTotal, a.diversity, a.millis)
    }
  }

  /** Fig. 10: streaming comparison on the Beer dataset — per-item update
    * time, post-processing time, diversity, stored items.
    */
  final case class StreamRow(algo: String, k: Int, updateMicros: Double,
                             postMillis: Long, diversity: Double, stored: Int)

  val StreamKs: Seq[Int] = Seq(10, 20, 50)

  def streaming(spark: SparkSession, kTotal: Int): Seq[StreamRow] = {
    val pts = dataset(spark, Datasets.beer).pts
    val k = MFD.attainable(pts, Datasets.equalK(Datasets.beer.m, kTotal))
    // Streams every point through `insert`, then post-processes.
    def stream(algo: String, insert: LabeledPoint => Unit, stored: => Int)(post: => Array[LabeledPoint]): StreamRow = {
      val t0 = System.nanoTime()
      pts.foreach(insert)
      val t1 = System.nanoTime()
      val sel = post
      val t2 = System.nanoTime()
      StreamRow(algo, kTotal, (t1 - t0) / 1000.0 / pts.length, (t2 - t1) / 1000000,
        Points.diversity(sel.toSeq), stored)
    }
    val mfd = new StreamMFD(k, MFD.Config(eps = 0.5, g = 0.3))
    // SFDM-2 at both epsilons (bounds assumed known pre-stream, as in [50]).
    val rows = stream("StreamMFD", mfd.insert, mfd.storedCount)(mfd.postProcess().selected) +:
      Seq(0.15, 0.75).map { eps =>
        val s = SFDM2.create(pts, k, eps)
        stream(s"SFDM-2(e=$eps)", s.insert, s.storedCount)(s.postProcess())
      }
    printTable(s"Fig 10 (Beer, k=$kTotal): update / post-process / diversity",
      Seq("Algorithm", "update (us/item)", "post (ms)", "diversity", "stored"),
      rows.map(r => Seq(r.algo, f"${r.updateMicros}%.2f", r.postMillis.toString,
        f"${r.diversity}%.3f", r.stored.toString)))
    rows
  }

  /** Markdown-ish table printer used by every experiment. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    println(s"\n### $title")
    println(header.mkString("| ", " | ", " |"))
    println(header.map(_ => "---").mkString("| ", " | ", " |"))
    rows.foreach(r => println(r.mkString("| ", " | ", " |")))
  }
}
