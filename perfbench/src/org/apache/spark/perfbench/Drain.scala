package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private. */
object Drain {

  /** Block until every listener event posted so far has been delivered. */
  def listenerBus(sc: SparkContext, timeoutMs: Long = 10000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
