package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark task accounting for one window (one call into the Spark coreset).
  * Times are the scheduler's wall-clock milliseconds.
  */
final class TaskAgg {
  var jobs = 0
  var tasks = 0
  var runMs = 0L
  var cpuNs = 0L
  var shuffleBytes = 0L
  var shuffleRecords = 0L
  private val intervals = scala.collection.mutable.ArrayBuffer[(Long, Long)]()

  def addJob(): Unit = jobs += 1

  def addTask(launchMs: Long, finishMs: Long, runMs: Long, cpuNs: Long,
              shuffleBytes: Long, shuffleRecords: Long): Unit = {
    tasks += 1
    this.runMs += runMs
    this.cpuNs += cpuNs
    this.shuffleBytes += shuffleBytes
    this.shuffleRecords += shuffleRecords
    intervals += ((launchMs, finishMs))
  }

  /** Milliseconds of `[fromMs, toMs)` during which no task was running. */
  def noTaskMs(fromMs: Long, toMs: Long): Long = {
    val clipped = intervals.toSeq
      .map { case (s, e) => (math.max(s, fromMs), math.min(e, toMs)) }
      .filter { case (s, e) => e > s }
    (toMs - fromMs) - Tracer.covered(clipped)
  }
}

/** Feeds every job and task of the application into the current [[TaskAgg]].
  * Listener events arrive asynchronously; [[Drain.listenerBus]] waits until
  * those posted so far were delivered.
  */
final class TaskListener extends SparkListener {
  @volatile var agg = new TaskAgg

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val a = agg
    a.synchronized(a.addJob())
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val a = agg
    val m = e.taskMetrics
    val info = e.taskInfo
    a.synchronized {
      if (m == null) a.addTask(info.launchTime, info.finishTime, 0L, 0L, 0L, 0L)
      else a.addTask(info.launchTime, info.finishTime, m.executorRunTime, m.executorCpuTime,
        m.shuffleWriteMetrics.bytesWritten, m.shuffleWriteMetrics.recordsWritten)
    }
  }
}
