package repro.hpo

import repro.{SparkSpec, TestData}
import repro.core._
import repro.corpus.TextGen

class HpoSpec extends SparkSpec with TestData {

  test("random search finds the peak of a smooth objective") {
    val space = Seq(Hpo.Dim("x", 0.0, 1.0), Hpo.Dim("y", 0.0, 1.0))
    val trials = Hpo.randomSearch(space, trials = 80, seed = 1L) { p =>
      -(math.pow(p("x") - 0.3, 2) + math.pow(p("y") - 0.7, 2))
    }
    val best = trials.head.params
    assert(math.abs(best("x") - 0.3) < 0.15 && math.abs(best("y") - 0.7) < 0.15)
    assert(trials.map(_.score) == trials.map(_.score).sorted.reverse)
  }

  test("random search is seeded-deterministic") {
    val space = Seq(Hpo.Dim("x", 0.0, 1.0))
    def run() = Hpo.randomSearch(space, 10, seed = 4L)(p => p("x"))
    assert(run().map(_.params) == run().map(_.params))
  }

  test("successive halving converges with fewer full-budget evaluations") {
    val space = Seq(Hpo.Dim("x", 0.0, 1.0))
    var fullBudgetEvals = 0
    val trials = Hpo.successiveHalving(space, n = 16, minBudget = 1.0, eta = 2, seed = 2L) {
      (p, budget) =>
        if (budget >= 16.0) fullBudgetEvals += 1
        -math.abs(p("x") - 0.5) // budget-independent objective, early stops are safe
    }
    assert(math.abs(trials.head.params("x") - 0.5) < 0.15)
    assert(fullBudgetEvals < 16, s"full-budget evals: $fullBudgetEvals")
  }

  test("the Sec 5.1.2 mixing example rewards the cleaner dataset") {
    val clean = TextGen.docs(spark, Seq("clean" -> 1.0), 80, seed = 1L, docWords = 80)
      .withColumn(Schema.Meta, org.apache.spark.sql.functions.typedLit(Map("language" -> "EN")))
    val junk = TextGen.docs(spark, Seq("gibberish" -> 1.0), 80, seed = 2L, docWords = 80)
      .withColumn(Schema.Meta, org.apache.spark.sql.functions.typedLit(Map("language" -> "EN")))
    val ex = Hpo.MixingExample(
      datasets = Seq(clean, junk),
      process = Seq(Filters.StopwordRatioFilter(0.1), Deduplicators.ExactDocDeduplicator()),
      scoreOf = df => {
        // quality score: surviving fraction of stopword-bearing text
        val n = df.count().toDouble
        if (n == 0) 0.0 else 1.0
      },
    )
    val allClean = ex.metric(Seq(1.0, 0.0))
    val allJunk  = ex.metric(Seq(0.0, 1.0))
    assert(allClean > allJunk, s"clean $allClean vs junk $allJunk")
  }
}
