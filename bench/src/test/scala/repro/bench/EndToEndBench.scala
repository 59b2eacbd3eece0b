package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Fig. 5/6 (+ Fig. 9 pareto at k=100) — the main end-to-end comparison:
  * diversity and runtime of MFD vs every baseline, equal k_j.
  *
  * Paper's shape to reproduce:
  *  - FMMD-S reaches the highest diversity where it finishes but is far
  *    slower / DNFs on the large datasets;
  *  - SFDM-2(e=.15) matches MFD's diversity but is an order of magnitude
  *    slower, DNF on Popsim;
  *  - FairFlow / FairGreedyFlow are fast but clearly less diverse;
  *  - MFD is on the diversity/runtime pareto front everywhere.
  */
class EndToEndBench extends SparkSpec {

  private val all = scala.collection.mutable.ArrayBuffer[Experiments.Run]()

  for ((spec, k) <- Experiments.endToEndCells(proportional = false)) {
    test(s"Fig 5/6: ${spec.name} k=$k (equal k_j)") {
      val rows = Experiments.endToEnd(spark, spec, k, proportional = false)
      all ++= rows

      val mfd = rows.find(_.algo.startsWith("MFD")).get
      assert(!mfd.dnf, "MFD must always finish")
      assert(mfd.diversity > 0)
      // Random (when it finished) must not beat MFD's diversity.
      rows.find(_.algo == "Random").filter(!_.dnf).foreach { rnd =>
        assert(mfd.diversity >= rnd.diversity * 0.8,
          s"MFD ${mfd.diversity} vs Random ${rnd.diversity}")
      }
    }
  }

  test("Fig 9: pareto summary at k=100") {
    val at100 = all.filter(_.k == 100)
    Experiments.printTable(
      "Fig 9: (runtime, diversity) pairs at k=100 per dataset",
      Seq("Dataset", "Algorithm", "time", "diversity"),
      at100.map(r => Seq(r.dataset, r.algo, r.timeStr, r.divStr)).toSeq)
    // The paper's pareto claim rests on its baselines' implementations
    // blowing up at million scale (Python + MIP/flow libraries + 30-min
    // cap); our compiled from-scratch baselines don't, so instead we assert
    // the diversity ordering that carries the claim (see EXPERIMENTS.md):
    // FMMD-S on top, MFD above the flow heuristics and Random.
    for (ds <- at100.map(_.dataset).distinct) {
      val rows = at100.filter(_.dataset == ds).filter(!_.dnf)
      val mfd = rows.find(_.algo.startsWith("MFD")).get
      rows.find(_.algo == "FMMD-S").foreach { f =>
        assert(f.diversity >= mfd.diversity * 0.9, s"$ds: FMMD-S ${f.diversity} below MFD ${mfd.diversity}")
      }
      rows.find(_.algo == "FairGreedyFlow").foreach { f =>
        assert(mfd.diversity >= f.diversity * 0.8, s"$ds: MFD ${mfd.diversity} below FairGreedyFlow ${f.diversity}")
      }
      rows.find(_.algo == "Random").foreach { f =>
        assert(mfd.diversity >= f.diversity * 0.8, s"$ds: MFD ${mfd.diversity} below Random ${f.diversity}")
      }
    }
  }
}
