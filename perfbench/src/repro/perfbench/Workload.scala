package repro.perfbench

import org.apache.spark.perfbench.Drain
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.data.Datasets
import repro.geo.KdTree
import repro.stream.StreamMFD
import scala.util.control.NonFatal

/** One benchmark workload: a dataset stand-in at its full size and the
  * equal per-color bounds. Every cell goes through the Spark pipeline
  * (`MFDSpark.run`).
  *
  * @param warmupCells cells run before measuring, for the JIT; every
  *                    workload runs at least [[Workload.DigestCells]]
  * @param minCells    untraced runs measure at least this many cells, even
  *                    past `--seconds`, so that `solve_ms_tail` has enough
  *                    samples: with 40, ten cells lie above its 75th percentile
  */
final case class Workload(name: String, spec: Datasets.Spec, k: Int,
                          warmupCells: Int, minCells: Int)

object Workload {
  val Eps = 0.3
  val G = 0.3
  /** Per-cell limit; a cell that needs longer fails. */
  val CellDeadlineMs = 30000L
  /** Cells whose selections make up the selected-set digest. */
  val DigestCells = 2

  val all: Seq[Workload] = Seq(
    Workload("adult-k100", Datasets.adult, 100, warmupCells = 6, minCells = 40),
    // 40 cells of 1.2–1.8 s would take the runs past their time budget; with
    // 22 the tail is the 55th percentile.
    Workload("popsim-k20", Datasets.popsim, 20, warmupCells = 2, minCells = 22)
  )

  /** MFD seed of one cell, from the workload seed and the cell index. The
    * input itself is the spec's fixed stand-in, the same for every seed.
    */
  def cellSeed(seed: Long, cell: Int): Long = seed * 1000003L + cell
}

/** Result of one cell. `ms` is the timed region: the input to the fair set. */
final case class CellOut(ms: Double, selected: Array[LabeledPoint], diversity: Double,
                         missed: Int, violations: List[String])

/** Per-layer numbers of one traced cell, by metric name. */
final case class LayerOut(pipelineMs: Double, metrics: Map[String, Double], violations: List[String])

/** The state one run keeps between cells: the persisted input and its
  * driver-side copy (indexed by id) that outputs are checked against.
  */
final class Bench(w: Workload, spark: SparkSession, ds: Dataset[LabeledPoint],
                  input: Array[LabeledPoint], seed: Long) {
  import Workload._

  private val k: Map[Int, Int] = Datasets.equalK(w.spec.m, w.k)
  private val kPrime: Int = k.values.sum
  private val colorCounts: Map[Int, Long] = input.groupBy(_.color).map { case (c, g) => c -> g.length.toLong }
  private val coresetSize = Contract.coresetSize(colorCounts, kPrime)

  private def cfg(cell: Int): MFD.Config =
    MFD.Config(eps = Eps, g = G, seed = cellSeed(seed, cell), deadlineNanos = Deadline.in(CellDeadlineMs))

  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  private def guarded(body: => CellOut): CellOut =
    try {
      val out = body
      if (out.ms > CellDeadlineMs) out.copy(violations = s"cell took ${out.ms} ms" :: out.violations) else out
    } catch {
      case NonFatal(e) => CellOut(Double.NaN, Array.empty, Double.NaN, 0, List(s"threw $e"))
    }

  /** One untraced cell: the input to the fair set, then the contract check. */
  def cell(cell: Int): CellOut = guarded {
    val t0 = System.nanoTime()
    val timed = MFDSpark.run(ds, k, cfg(cell))
    val t = ms(t0)
    val res = timed.result
    val size =
      if (timed.coresetSize == coresetSize) Nil
      else List(s"coreset: ${timed.coresetSize} points, expected $coresetSize")
    CellOut(t, res.selected, res.diversity, Contract.missed(res.selected, k),
      size ++ Contract.selection(res, input, None, Eps))
  }

  /** One traced cell. The pipeline is the same work as [[cell]], made of the
    * layer calls themselves so that each gets a span; `probe` then replays
    * the layers the pipeline calls only internally, runs the reference
    * coreset, and streams the same input through `StreamMFD`, each timed
    * from outside and each output checked.
    */
  def tracedCell(cell: Int, tr: Tracer, listener: TaskListener): LayerOut = {
    val c = cfg(cell)
    val m = scala.collection.mutable.Map[String, Double]()
    var viol = List.empty[String]
    var pipelineMs = Double.NaN
    def span[A](name: String)(body: => A): A = tr.span(name, cell)(body)
    def spanMs[A](name: String)(body: => A): (A, Double) = {
      val t0 = System.nanoTime(); val a = span(name)(body); (a, ms(t0))
    }

    // The Spark coreset with its task accounting.
    def sparkCoreset(): Array[LabeledPoint] = {
      Drain.listenerBus(spark.sparkContext)
      listener.agg = new TaskAgg
      val w0 = System.currentTimeMillis()
      val (cs, t) = spanMs("CoresetSpark.distributed")(CoresetSpark.distributed(ds, kPrime))
      val w1 = System.currentTimeMillis()
      Drain.listenerBus(spark.sparkContext)
      val a = listener.agg
      m ++= Seq("coreset.ms" -> t, "coreset.size" -> cs.length.toDouble, "coreset.jobs" -> a.jobs.toDouble,
        "coreset.tasks" -> a.tasks.toDouble, "coreset.task_run_ms" -> a.runMs.toDouble,
        "coreset.task_cpu_ms" -> a.cpuNs / 1e6, "coreset.no_task_ms" -> a.noTaskMs(w0, w1).toDouble,
        "coreset.shuffle_write_bytes" -> a.shuffleBytes.toDouble,
        "coreset.shuffle_records" -> a.shuffleRecords.toDouble)
      cs
    }

    def mfd(pool: Array[LabeledPoint]): MFD.Result = {
      val a0 = Jvm.threadAllocated()
      val (r, t) = spanMs("MFD.run")(MFD.run(pool, k, c))
      m ++= Seq("mfd.ms" -> t, "mfd.alloc_mb" -> (Jvm.threadAllocated() - a0) / 1048576.0,
        "mfd.mwu_iters" -> r.mwuIterations.toDouble, "mfd.gamma_steps" -> r.gammaSteps.toDouble,
        "mfd.gamma" -> r.gamma, "mfd.selected" -> r.selected.length.toDouble)
      r
    }

    def stream(): (StreamMFD, MFD.Result) = {
      val s = new StreamMFD(k, c)
      val (_, tIns) = spanMs("StreamMFD.insert")(input.foreach(s.insert))
      val (r, tPost) = spanMs("StreamMFD.postProcess")(s.postProcess(c.deadlineNanos))
      m ++= Seq("stream.insert_ns_per_item" -> tIns * 1e6 / input.length,
        "stream.stored" -> s.storedCount.toDouble, "stream.post_ms" -> tPost)
      (s, r)
    }

    // The MFD internals, replayed on MFD's own input at the γ it returned.
    def mfdLayers(pool: Array[LabeledPoint], res: MFD.Result): Unit = {
      val (bound, tG) = spanMs("Gonzalez.diversityUpperBound")(
        Gonzalez.diversityUpperBound(pool, math.max(2, kPrime)))
      val (tree, tB) = spanMs("KdTree.build")(KdTree.build(pool))
      val pathSum = pool.indices.map(tree.pathToRoot(_).length.toLong).sum
      val r = res.gamma / (2.0 * (1.0 + Eps))
      val (canon, tC) = spanMs("KdTree.canonicalNodes")(pool.map(p => tree.canonicalNodes(p.x, r, Eps).length.toLong).sum)
      m ++= Seq("gonzalez.bound_ms" -> tG, "gonzalez.bound" -> bound, "kdtree.build_ms" -> tB,
        "kdtree.nodes" -> tree.nodeCount.toDouble, "kdtree.path_sum" -> pathSum.toDouble,
        "kdtree.canon_ms" -> tC, "kdtree.canon_nodes" -> canon.toDouble,
        "mfd.node_visits_computed" -> res.mwuIterations * 2.0 * (canon + pathSum))
    }

    def localCoreset(): Array[LabeledPoint] = {
      val (cs, t) = spanMs("Coreset.local")(Coreset.local(input, kPrime))
      m("coreset_local.ms") = t
      cs
    }
    def checkCoreset(cs: Array[LabeledPoint]): Unit = viol ++= Contract.coreset(cs, input, colorCounts, kPrime)

    try span("cell") {
      val ((cs, res), t) = spanMs("pipeline") { val cs = sparkCoreset(); (cs, mfd(cs)) }
      pipelineMs = t
      span("check") {
        checkCoreset(cs)
        viol ++= Contract.selection(res, input, Some(cs), Eps)
      }
      span("probe") {
        mfdLayers(cs, res)
        checkCoreset(localCoreset())
        val (s, sr) = stream()
        val syn = s.synopsis
        viol ++= Contract.subset("synopsis", syn, input, None) ++ Contract.selection(sr, input, Some(syn), Eps)
      }
    } catch {
      case NonFatal(e) => viol ::= s"threw $e"
    }
    LayerOut(pipelineMs, m.toMap, viol)
  }
}

/** JVM counters read around cells. */
object Jvm {
  private val threads =
    java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by each live thread. */
  def allocatedByThread(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated since `before` (threads started since count from 0). */
  def allocatedSince(before: Map[Long, Long]): Long =
    allocatedByThread().map { case (id, b) => b - before.getOrElse(id, 0L) }.filter(_ > 0).sum

  def gcMillis(): Long =
    java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.toArray
      .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getCollectionTime).filter(_ > 0).sum

  /** Heap in use after a full collection, in MiB: the least of three tries,
    * since Spark frees some objects only after a collection has found them
    * unreachable, and its background threads allocate in between.
    */
  def retainedHeapMb(): Double = (1 to 3).map { _ =>
    System.gc()
    Thread.sleep(50)
    java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }.min
}
