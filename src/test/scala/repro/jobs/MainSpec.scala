package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** Argument parsing of the experiment entry point (no Spark needed: the
  * name is checked before a session is created).
  */
class MainSpec extends AnyFunSuite {

  test("every listed experiment is accepted; unknown or missing names are rejected") {
    Main.experiments.foreach { case (name, _) => assert(Main.parse(name.split(" ")).isRight, name) }
    for (bad <- Seq(Array.empty[String], Array("table5"), Array("table3", "proportional")))
      assert(Main.parse(bad) == Left(Main.Usage), bad.mkString(" "))
  }
}
