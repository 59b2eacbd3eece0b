package repro.perfbench

import repro.core.{LabeledPoint, MFD, Points}

/** Checks of the benchmark's own code on hand-made inputs: the summariser,
  * the task aggregation, span self times, and the contract checker, which
  * must reject outputs known to be bad. Runs at the start of every benchmark
  * run, which stops with exit code 3 if any check fails.
  */
object SelfTest {

  def failures(): List[String] = {
    val f = List.newBuilder[String]
    def check(what: String, ok: Boolean): Unit = if (!ok) f += what

    // Summariser.
    val ten = (1 to 10).map(_.toDouble)
    check("median of an odd count", Summary.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    check("median of an even count", Summary.median(ten) == 5.5)
    check("quartiles follow statistics.quantiles(n=4)", Summary.quartiles(ten) == ((2.75, 8.25)))
    check("no tail with 10 samples", Summary.tail(ten).isEmpty)
    check("tail of 30 samples is the 20th with 10 above",
      Summary.tail((1 to 30).map(_.toDouble)).contains(Summary.Tail(20.0, 100.0 * 20 / 30, 10, 30)))
    val ties = Seq.fill(15)(1.0) ++ Seq.fill(10)(2.0) ++ Seq(3.0)
    check("tail steps below ties so that 10 samples stay above",
      Summary.tail(ties).contains(Summary.Tail(1.0, 100.0 * 15 / 26, 11, 26)))

    // Task aggregation.
    val agg = new TaskAgg
    agg.addJob(); agg.addJob()
    agg.addTask(0, 10, 9, 8000000L, 100, 1)
    agg.addTask(5, 20, 14, 2000000L, 50, 2)
    agg.addTask(30, 40, 10, 0L, 0, 0)
    check("task sums", agg.jobs == 2 && agg.tasks == 3 && agg.runMs == 33 && agg.cpuNs == 10000000L &&
      agg.shuffleBytes == 150 && agg.shuffleRecords == 3)
    check("no-task time over the whole window", agg.noTaskMs(0, 50) == 20)
    check("no-task time clips tasks to the window", agg.noTaskMs(8, 35) == 10)
    check("no-task time with no tasks", new TaskAgg().noTaskMs(3, 7) == 4)

    // Span self time: children [10,30) and [20,50) cover 40 of the parent's 100.
    val spans = Seq(Tracer.Span(0, "cell", 0, -1, 0, 100), Tracer.Span(1, "a", 0, 0, 10, 30),
      Tracer.Span(2, "b", 0, 0, 20, 50), Tracer.Span(3, "c", 0, 2, 25, 45))
    check("self time subtracts covered child time", Tracer.selfNanos(spans) ==
      Map(0 -> 60L, 1 -> 20L, 2 -> 10L, 3 -> 20L))

    // Contract checker.
    val input = Array.tabulate(6)(i => LabeledPoint(i, i % 2, Array(10.0 * i, 0.0)))
    val counts = Map(0 -> 3L, 1 -> 3L)
    val cs = input.take(4)
    check("a good coreset passes", Contract.coreset(cs, input, counts, 2).isEmpty)
    check("a coreset with too few points of a color fails", Contract.coreset(cs.take(3), input, counts, 2).nonEmpty)
    check("a duplicate id fails", Contract.coreset(cs :+ cs(0), input, counts, 3).exists(_.contains("duplicate")))
    val moved = LabeledPoint(1, 1, Array(10.0, 0.5))
    check("a point with other coordinates than the input fails",
      Contract.subset("S", Array(input(0), moved), input, None).exists(_.contains("not in the input")))
    check("an unknown id fails",
      Contract.subset("S", Array(LabeledPoint(99, 0, Array(0.0, 0.0))), input, None).exists(_.contains("not in the input")))
    def result(s: Array[LabeledPoint], gamma: Double) = MFD.Result(s, gamma, Points.diversity(s.toSeq), 1, 0)
    val eps = 0.3
    val good = result(Array(input(0), input(3)), 2 * (1 + eps) * 30.0)
    check("a good selection passes", Contract.selection(good, input, Some(cs), eps).isEmpty)
    check("a selection outside the coreset fails",
      Contract.selection(result(Array(input(0), input(5)), 1.0), input, Some(cs), eps).exists(_.contains("outside")))
    check("a pair closer than gamma/(2(1+eps)) fails",
      Contract.selection(result(Array(input(0), input(1)), 2 * (1 + eps) * 10.5), input, Some(cs), eps)
        .exists(_.contains("gamma")))
    check("a misreported diversity fails",
      Contract.selection(good.copy(diversity = 31.0), input, Some(cs), eps).exists(_.contains("reported")))
    check("missed counts the per-color shortfall",
      Contract.missed(Array(input(0), input(2)), Map(0 -> 1, 1 -> 2)) == 2)

    f.result()
  }
}
