package repro.hpo

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.lm.NGramLM

/** Hyper-parameter optimization for data processing (paper Sec. 5.1): tie
  * data-processing hyper-parameters (filter thresholds, mixture weights) to
  * a feedback metric, and search — our stand-in for W&B Sweeps, offering
  * seeded random search and Hyperband-style successive halving.
  */
object Hpo {

  /** A search-space dimension: uniform in [lo, hi]. */
  final case class Dim(name: String, lo: Double, hi: Double)

  final case class Trial(params: Map[String, Double], score: Double)

  /** Seeded random search: evaluate `trials` uniform draws, best first. */
  def randomSearch(space: Seq[Dim], trials: Int, seed: Long)(eval: Map[String, Double] => Double): Seq[Trial] = {
    val r = new java.util.Random(seed)
    (0 until trials).map { _ =>
      val p = space.map(d => d.name -> (d.lo + r.nextDouble() * (d.hi - d.lo))).toMap
      Trial(p, eval(p))
    }.sortBy(-_.score)
  }

  /** Successive halving (the Hyperband inner loop): start `n` configs at
    * budget `minBudget`, keep the top 1/`eta` each rung, multiply the budget
    * by `eta`, until one survivor remains. `eval(params, budget)` must be
    * monotone-comparable across budgets (e.g. metric on a budget-sized
    * sample) — the paper's "progressive early-stop".
    */
  def successiveHalving(space: Seq[Dim], n: Int, minBudget: Double, eta: Int, seed: Long)
                       (eval: (Map[String, Double], Double) => Double): Seq[Trial] = {
    val r = new java.util.Random(seed)
    var configs: Seq[Map[String, Double]] = (0 until n).map { _ =>
      space.map(d => d.name -> (d.lo + r.nextDouble() * (d.hi - d.lo))).toMap
    }
    var budget = minBudget
    var last: Seq[Trial] = Nil
    while (configs.size > 1) {
      last = configs.map(p => Trial(p, eval(p, budget))).sortBy(-_.score)
      configs = last.take(math.max(1, configs.size / eta)).map(_.params)
      budget *= eta
    }
    // Final evaluation of the survivor at the last budget.
    val winner = Trial(configs.head, eval(configs.head, budget))
    (winner +: last.filterNot(_.params == winner.params)).sortBy(-_.score)
  }

  /** The paper's Sec. 5.1.2 worked example: find mixture weights w_i for M
    * datasets that maximize `n/N + s`, where N is the total token count of
    * all datasets, n the token count of the processed mixture, and s its
    * mean quality score — after meta-filtering to EN and de-duplication.
    */
  final case class MixingExample(
      datasets: Seq[DataFrame],
      process: Seq[Op],
      scoreOf: DataFrame => Double, // mean quality score s of a dataset
  ) {
    private lazy val totalTokens: Long = datasets.map(NGramLM.countTokens).sum

    def metric(weights: Seq[Double], seed: Long = 5L): Double = {
      require(weights.size == datasets.size)
      val langFilter = Filters.MetaFieldFilter("language", Seq("EN"))
      val mixed = Formatters.mix(datasets.zip(weights), seed)
      val processed = Pipeline.run(mixed, langFilter +: process)
      val n = NGramLM.countTokens(processed)
      val s = scoreOf(processed)
      n.toDouble / math.max(1L, totalTokens) + s
    }
  }
}
