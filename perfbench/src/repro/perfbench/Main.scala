package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.LabeledPoint
import repro.data.Datasets
import scala.collection.mutable.ArrayBuffer

/** The repository benchmark: one workload, one seed, one run.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
  * }}}
  *
  * Set-up starts Spark, generates the workload's input (several times,
  * keeping the last), persists it, copies it to the driver and runs the
  * warm-up cells. Then cells run in a closed loop with one caller until
  * `seconds` have passed. Untraced runs go on until the workload's
  * `minCells` cells ran, but not past twice `seconds`, which bounds the run
  * time on a slow host; traced runs go on until at least one traced and one
  * untraced cell ran. The seed sets each cell's MFD seed, and every cell's
  * output is checked against the contract. With `--trace 1` every other cell is a traced cell and
  * the per-layer metrics are reported instead of the end-to-end ones.
  *
  * The last stdout line is `RESULT <json>`; the full record (settings,
  * digests, tail percentile) goes to `<out-dir>`, spans to `<out-dir>/trace`.
  */
object Main {

  /** Task threads: the benchmark's fixed core count, capped by the machine. */
  val MaxThreads = 4
  /** Partitions of the generated input, independent of the thread count:
    * the generator seeds its random columns per partition.
    */
  val InputPartitions = 4
  /** Set-up repetitions of generate → persist → count; the median counts. */
  val LoadReps = 3

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, outDir: Path)

  def parse(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      name <- need("workload")
      w <- Workload.all.find(_.name == name).toRight(
        s"unknown workload $name (one of ${Workload.all.map(_.name).mkString(", ")})")
      seed <- need("seed").flatMap(s => s.toLongOption.filter(_ >= 0).toRight(s"bad --seed $s"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ >= 1).toRight(s"bad --seconds $s"))
      trace <- need("trace").flatMap {
        case "0" => Right(false); case "1" => Right(true); case t => Left(s"bad --trace $t")
      }
      out <- need("out-dir")
    } yield Args(w, seed, secs, trace, Paths.get(out).toAbsolutePath)
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv) match {
      case Right(a) => a
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val broken = SelfTest.failures()
    if (broken.nonEmpty) {
      broken.foreach(f => System.err.println(s"self-test failed: $f"))
      sys.exit(3)
    }
    val code = try run(args) finally SparkSession.getActiveSession.foreach(_.stop())
    sys.exit(code)
  }

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def session(outDir: Path, threads: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toString)
      .config("spark.default.parallelism", InputPartitions.toString)
      .config("spark.sql.leafNodeDefaultParallelism", InputPartitions.toString)
      .config("spark.sql.shuffle.partitions", InputPartitions.toString)
      .getOrCreate()

  /** 64-bit digest of points in the given order. */
  def digest(pts: Iterator[LabeledPoint]): Long = {
    def mix(z0: Long): Long = {
      var z = z0 * 0x9E3779B97F4A7C15L
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      z ^ (z >>> 31)
    }
    var h = 0x1234567L
    pts.foreach { p =>
      h = mix(h ^ p.id); h = mix(h ^ p.color)
      p.x.foreach(v => h = mix(h ^ java.lang.Double.doubleToLongBits(v)))
    }
    h
  }

  def run(a: Args): Int = {
    val w = a.workload
    val threads = math.min(MaxThreads, Runtime.getRuntime.availableProcessors)
    Files.createDirectories(a.outDir)

    // ---- Set-up.
    val t0 = System.nanoTime()
    val spark = session(a.outDir, threads)
    spark.sparkContext.setLogLevel("WARN")
    val sparkStartS = secs(t0)
    var ds: org.apache.spark.sql.Dataset[LabeledPoint] = null
    val loadS = (1 to LoadReps).map { _ =>
      if (ds != null) ds.unpersist(true)
      val t = System.nanoTime()
      ds = Datasets.points(spark, w.spec, 1.0).persist()
      ds.count()
      secs(t)
    }
    val tc = System.nanoTime()
    val input = ds.collect().sortBy(_.id)
    val collectS = secs(tc)
    require(input.indices.forall(i => input(i).id == i), "generated ids are not 0 until n")
    val bench = new Bench(w, spark, ds, input, a.seed)

    val tw = System.nanoTime()
    val warm = (0 until w.warmupCells).map(bench.cell)
    val warmupS = secs(tw)
    val heapMb = Jvm.retainedHeapMb()
    val setupS = sparkStartS + Summary.median(loadS) + collectS + warmupS
    val selDigest = digest(warm.take(Workload.DigestCells).iterator.flatMap(_.selected.sortBy(_.id)))

    // ---- Measured cells.
    val tracer = new Tracer
    val listener = new TaskListener
    if (a.trace) spark.sparkContext.addSparkListener(listener)
    val cells = ArrayBuffer[CellOut]()
    val layers = ArrayBuffer[LayerOut]()
    var cell = w.warmupCells
    // GC time and allocation of the untraced cells only, so that the probes
    // of traced cells do not count.
    var gcMs = 0L; var allocBytes = 0L
    val end = System.nanoTime() + a.seconds * 1000000000L
    val cap = end + a.seconds * 1000000000L
    def more: Boolean =
      if (a.trace) layers.isEmpty || cells.isEmpty
      else cells.length < w.minCells && System.nanoTime() < cap
    while (System.nanoTime() < end || more) {
      if (a.trace && cell % 2 == 1) {
        val l = bench.tracedCell(cell, tracer, listener)
        layers += l.copy(metrics = l.metrics ++ tracer.selfMs(cell))
      } else {
        val gc0 = Jvm.gcMillis(); val alloc0 = Jvm.allocatedByThread()
        cells += bench.cell(cell)
        gcMs += Jvm.gcMillis() - gc0; allocBytes += Jvm.allocatedSince(alloc0)
      }
      cell += 1
    }
    // Most cells see no collection, so these are means over the untraced cells.
    val gcMsPerCell = gcMs.toDouble / cells.length
    val allocMbPerCell = allocBytes / 1048576.0 / cells.length

    // ---- Summary.
    val ok = cells.filter(_.violations.isEmpty)
    val failures = (warm ++ cells).flatMap(_.violations) ++ layers.flatMap(_.violations)
    val attempted = cells.length + layers.length
    val failed = cells.count(_.violations.nonEmpty) + layers.count(_.violations.nonEmpty)
    val times = ok.map(_.ms).toSeq
    val tail = Summary.tail(times)
    val missedMean = if (cells.isEmpty) 0.0 else cells.map(_.missed.toDouble).sum / cells.length
    val env = Seq(
      "cores" -> Runtime.getRuntime.availableProcessors.toString, "task_threads" -> threads.toString,
      "heap_max_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "jvm" -> System.getProperty("java.runtime.version"), "spark" -> spark.version,
      "scala" -> scala.util.Properties.versionNumberString,
      "input_partitions" -> InputPartitions.toString)
    val info = Seq(
      "n" -> input.length.toString, "m" -> w.spec.m.toString, "d" -> w.spec.d.toString, "k" -> w.k.toString,
      "eps" -> Workload.Eps.toString, "g" -> Workload.G.toString,
      "input_digest" -> f"${digest(input.iterator)}%016x", "selected_digest" -> f"$selDigest%016x",
      "spark_start_s" -> sparkStartS.toString, "load_s" -> loadS.mkString("[", ",", "]"),
      "collect_s" -> collectS.toString, "warmup_s" -> warmupS.toString,
      "fail_rate" -> (if (attempted == 0) "0" else (failed.toDouble / attempted).toString),
      "missed_total" -> missedMean.toString) ++
      tail.toSeq.flatMap(t => Seq("solve_ms_tail_percentile" -> t.percentile.toString,
        "solve_ms_tail_above" -> t.above.toString, "solve_ms_samples" -> t.samples.toString)) ++
      (if (times.length < 2) Nil else {
        val (q1, q3) = Summary.quartiles(times)
        Seq("solve_ms_q1" -> q1.toString, "solve_ms_q3" -> q3.toString)
      })

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) {
        if (times.isEmpty) Nil
        else Seq(
          ("solve_ms_p50", Summary.median(times), "ms"),
          // Only failed cells leave ≤ 10 samples; then the max stands in.
          ("solve_ms_tail", tail.map(_.value).getOrElse(times.max), "ms"),
          ("diversity", Summary.median(ok.map(_.diversity).toSeq), "dist"),
          ("pass_rate", (attempted - failed).toDouble / attempted, "ratio"),
          ("fair_fill", 1.0 - missedMean / w.k, "ratio"),
          ("setup_s", setupS, "s"),
          ("heap_retained_mb", heapMb, "MiB"))
      } else layerMetrics(layers.toSeq, tracer.all.length, times, gcMsPerCell, allocMbPerCell)

    if (a.trace) tracer.writeJsonl(a.outDir.resolve("trace").resolve(s"${w.name}-seed${a.seed}.jsonl"))
    val record = Json.obj(Seq(
      "workload" -> Json.str(w.name), "seed" -> a.seed.toString, "trace" -> a.trace.toString,
      "env" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
      "info" -> Json.obj(info.map { case (k, v) => k -> Json.str(v) }),
      "failures" -> failures.take(20).map(Json.str).mkString("[", ",", "]"),
      "solve_ms" -> cells.map(c => Json.num(c.ms)).mkString("[", ",", "]"),
      "metrics" -> metricsJson(metrics)))
    Files.writeString(a.outDir.resolve(s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json"), record + "\n")

    (env ++ info).foreach { case (k, v) => println(s"$k: $v") }
    failures.take(20).foreach(f => println(s"failure: $f"))
    metrics.foreach { case (k, v, u) => println(s"$k: $v $u") }
    println("RESULT " + Json.obj(Seq(
      "correct" -> (failed == 0 && failures.isEmpty && metrics.nonEmpty).toString,
      "attempted" -> attempted.toString, "failed" -> failed.toString,
      "metrics" -> metricsJson(metrics))))
    0
  }

  private def metricsJson(ms: Seq[(String, Double, String)]): String =
    Json.obj(ms.map { case (k, v, u) => k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })

  /** Span names whose self time is reported. */
  val SpanNames: Seq[String] = Seq("cell", "pipeline", "CoresetSpark.distributed", "MFD.run",
    "StreamMFD.insert", "StreamMFD.postProcess", "check", "probe", "Coreset.local",
    "Gonzalez.diversityUpperBound", "KdTree.build", "KdTree.canonicalNodes")

  /** Per-layer metric names and units, in report order. */
  val LayerUnits: Seq[(String, String)] = Seq(
    "coreset.ms" -> "ms", "coreset.size" -> "count", "coreset.jobs" -> "count", "coreset.tasks" -> "count",
    "coreset.task_run_ms" -> "ms", "coreset.task_cpu_ms" -> "ms", "coreset.no_task_ms" -> "ms",
    "coreset.shuffle_write_bytes" -> "bytes", "coreset.shuffle_records" -> "count",
    "coreset_local.ms" -> "ms", "gonzalez.bound_ms" -> "ms", "gonzalez.bound" -> "dist",
    "kdtree.build_ms" -> "ms", "kdtree.nodes" -> "count", "kdtree.path_sum" -> "count",
    "kdtree.canon_ms" -> "ms", "kdtree.canon_nodes" -> "count",
    "mfd.ms" -> "ms", "mfd.mwu_iters" -> "count", "mfd.gamma_steps" -> "count", "mfd.gamma" -> "dist",
    "mfd.selected" -> "count", "mfd.alloc_mb" -> "MiB", "mfd.node_visits_computed" -> "count",
    "stream.insert_ns_per_item" -> "ns", "stream.stored" -> "count", "stream.post_ms" -> "ms",
    "jvm.gc_ms" -> "ms", "jvm.alloc_mb" -> "MiB", "trace.overhead_ms" -> "ms", "trace.spans" -> "count") ++
    SpanNames.map(n => s"self_ms.$n" -> "ms")

  /** Medians over the traced cells, with the JVM counters as given. */
  def layerMetrics(layers: Seq[LayerOut], spans: Int, untracedMs: Seq[Double],
                   gcMs: Double, allocMb: Double): Seq[(String, Double, String)] = {
    val good = layers.filter(_.violations.isEmpty)
    if (good.isEmpty || untracedMs.isEmpty) return Nil
    val byName = LayerUnits.map(_._1).collect {
      case n if good.forall(_.metrics.contains(n)) => n -> Summary.median(good.map(_.metrics(n)))
    }.toMap ++ Map(
      "jvm.gc_ms" -> gcMs, "jvm.alloc_mb" -> allocMb,
      "trace.overhead_ms" -> (Summary.median(good.map(_.pipelineMs)) - Summary.median(untracedMs)),
      "trace.spans" -> spans.toDouble)
    LayerUnits.collect { case (n, u) if byName.contains(n) => (n, byName(n), u) }
  }
}

/** Just enough JSON for flat records of strings and numbers. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case ch if ch < ' ' => f"\\u${ch.toInt}%04x"; case ch => ch.toString
    } + "\""

  /** Non-finite values have no JSON form; they are written as null. */
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
