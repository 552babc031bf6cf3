package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.corpus.Components
import repro.lm.{Judge, NGramLM}

/** Table 3: pairwise judge comparison of LLaMA-7B post-tuned on
  *  - Alpaca (the original 52k subset),
  *  - Data-Juicer (SFT, EN) — the refined dataset at the same sample count,
  *  - Random (SFT, EN)      — a same-size random draw from the same pool.
  *
  * The (SFT, EN) pool is exactly what the paper uses: the subsets of the
  * Alpaca-CoT registry carrying both tags — alpaca, gpteacher, fastchat,
  * gpt4all. The claim reproduced: DJ wins both pairings, with a larger
  * margin against Alpaca than against Random.
  */
object Table3Experiment {

  final case class PairRow(name: String, winsOpp: Long, winsDj: Long, ties: Long)
  final case class Result(vsAlpaca: PairRow, vsRandom: PairRow, samplesPerSet: Long) {
    def table3: String = TableFmt.render(
      "Table 3 — pairwise judge wins/ties (paper: GPT-4; ours: margin judge)",
      Seq("Pair", "Opp wins", "DJ wins", "Ties"),
      Seq(
        Seq(vsAlpaca.name, vsAlpaca.winsOpp.toString, vsAlpaca.winsDj.toString, vsAlpaca.ties.toString),
        Seq(vsRandom.name, vsRandom.winsOpp.toString, vsRandom.winsDj.toString, vsRandom.ties.toString),
      ))
  }

  /** @param sftSamples samples per post-tuning dataset (paper: 52k → default 520)
    * @param nPrompts judge evaluation prompts (paper tallies ≈150)
    */
  def run(spark: SparkSession, sftSamples: Int = 520, nPrompts: Int = 150,
          baseTokens: Long = 150000L): Result = {
    // --- the (SFT, EN) candidate pool from the Alpaca-CoT registry -----
    val sftEn = Components.postTuning.filter(d =>
      d.usages.contains("SFT") && d.languages.contains("EN") &&
        Seq("alpaca", "gpteacher", "fastchat", "gpt4all").contains(d.name))
    require(sftEn.size == 4, s"expected the 4 named (SFT, EN) subsets, got ${sftEn.map(_.name)}")
    val subsets = sftEn.map(d => d.name -> Components.generatePostTuning(spark, d, scale = sftSamples / 400.0))
    val pool = Formatters.mix(subsets.map(_._2 -> 1.0), 51L)

    val alpacaSet = subsets.toMap.apply("alpaca")

    // --- Data-Juicer refinement vs random draw, equal sample counts ----
    val qc = Corpora.instructionQualityModel(spark, seed = 78L)
    val djSet     = Corpora.refineInstructions(pool, qc, sftSamples)
    val randomSet = Sampler.randomSample(pool, sftSamples, 99L)

    // --- base model + continued training (post-tuning, 3 epochs) -------
    val base = Corpora.raw(spark, Seq("clean" -> 1.0), baseTokens, seed = 401L)
    def posttune(dataset: DataFrame): NGramLM.Model = {
      val tuned = Formatters.mix(Seq(base -> 1.0, dataset -> 3.0), 61L)
      NGramLM.train(tuned)
    }
    val mAlpaca = posttune(alpacaSet)
    val mDj     = posttune(djSet)
    val mRandom = posttune(randomSet)

    // --- pairwise judging ----------------------------------------------
    val prompts = Judge.prompts(spark, nPrompts).localCheckpoint(true)
    val pa = Judge.compare(mAlpaca, mDj, prompts)
    val pr = Judge.compare(mRandom, mDj, prompts)
    Result(
      PairRow("Alpaca vs Data-Juicer (SFT, EN)", pa.winsA, pa.winsB, pa.ties),
      PairRow("Random (SFT, EN) vs Data-Juicer (SFT, EN)", pr.winsA, pr.winsB, pr.ties),
      sftSamples.toLong,
    )
  }
}
