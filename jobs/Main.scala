package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entry point: runs one experiment of the paper's §6 and prints
  * the same tables as the matching bench suite.
  *
  * Usage: spark-submit --class repro.jobs.Main repro.jar <experiment>
  */
object Main {

  /** Experiment name, as given on the command line → what it runs. */
  val experiments: Seq[(String, SparkSession => Unit)] = Seq(
    "table3" -> (spark => Experiments.datasetStats(spark)),
    "table4" -> (spark => Experiments.Table4Specs.foreach(Experiments.table4(spark, _))),
    "gsweep" -> (spark => Experiments.gSweep(spark)),
    "endtoend" -> endToEnd(proportional = false),
    "endtoend proportional" -> endToEnd(proportional = true),
    "streaming" -> (spark => Experiments.StreamKs.foreach(Experiments.streaming(spark, _))))

  private def endToEnd(proportional: Boolean)(spark: SparkSession): Unit =
    Experiments.endToEndCells(proportional).foreach { case (spec, k) =>
      Experiments.endToEnd(spark, spec, k, proportional)
    }

  val Usage: String =
    s"usage: repro.jobs.Main <experiment>, one of: ${experiments.map(_._1).mkString(", ")}"

  /** The experiment `argv` names, or the usage message. */
  def parse(argv: Array[String]): Either[String, SparkSession => Unit] =
    experiments.collectFirst { case (name, run) if name == argv.mkString(" ") => run }.toRight(Usage)

  def main(argv: Array[String]): Unit = {
    val run = parse(argv) match {
      case Right(r) => r
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val spark = SparkSession.builder().appName(s"repro ${argv.mkString(" ")}").getOrCreate()
    try run(spark) finally spark.stop()
  }
}
