package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory spans around the benchmark's calls into each layer.
  *
  * A span records its name, start and end (`System.nanoTime`), the span it
  * ran inside, and the cell it belongs to. Spans stay in memory until
  * [[writeJsonl]] at the end of the run, so the traced region does no I/O.
  */
final class Tracer {
  import Tracer.Span

  private val spans = ArrayBuffer[Span]()
  private var open: List[Int] = Nil // ids of the enclosing spans, innermost first

  def all: Seq[Span] = spans.toSeq

  def span[A](name: String, cell: Int)(body: => A): A = {
    val id = spans.length
    spans += Span(id, name, cell, open.headOption.getOrElse(-1), System.nanoTime(), -1L)
    open = id :: open
    try body
    finally {
      spans(id) = spans(id).copy(end = System.nanoTime())
      open = open.tail
    }
  }

  /** Self time of each span name within one cell, as `self_ms.<name>`. */
  def selfMs(cell: Int): Map[String, Double] = {
    val ss = spans.filter(_.cell == cell).toSeq
    val self = Tracer.selfNanos(ss)
    ss.groupBy(_.name).map { case (n, g) => s"self_ms.$n" -> g.map(s => self(s.id)).sum / 1e6 }
  }

  def writeJsonl(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s =>
      w.write(s"""{"id":${s.id},"name":"${s.name}","cell":${s.cell},"parent":${s.parent},""" +
        s""""start_ns":${s.start},"end_ns":${s.end}}""")
      w.newLine()
    } finally w.close()
  }
}

object Tracer {
  final case class Span(id: Int, name: String, cell: Int, parent: Int, start: Long, end: Long) {
    def nanos: Long = end - start
  }

  /** Length of the union of `[start, end)` intervals. */
  def covered(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) { total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    total + (curE - curS)
  }

  /** Self time of every span: its duration minus the part of it that its
    * direct children cover.
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
      s.id -> (s.nanos - covered(kids.filter { case (a, b) => b > a }))
    }.toMap
  }
}
