package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.corpus.TextGen
import repro.lm.NGramLM
import repro.quality.QualityClassifier

/** Shared corpus construction for the model-quality experiments (Tables 2, 3
  * and 9). Token budgets are expressed in "units" where 1 unit ≙ 1B paper
  * tokens, scaled by `tokensPerUnit` synthetic tokens.
  */
object Corpora {

  /** Pile-like raw mixture (Pythia's training data): majority clean, with the
    * usual web pathologies left in.
    */
  val pileMix: TextGen.Mix = Seq(
    "clean" -> 0.55, "gibberish" -> 0.15, "boilerplate" -> 0.10, "flagged" -> 0.05,
    "html" -> 0.05, "repeat" -> 0.05, "short" -> 0.05,
  )

  /** Web-crawl mixture (RefinedWeb's raw input): junk-heavier. */
  val webMix: TextGen.Mix = Seq(
    "clean" -> 0.35, "html" -> 0.20, "boilerplate" -> 0.20, "gibberish" -> 0.15,
    "flagged" -> 0.05, "repeat" -> 0.05,
  )

  /** Generate a raw corpus of ≈`tokens` synthetic tokens. */
  def raw(spark: SparkSession, mix: TextGen.Mix, tokens: Long, seed: Long, docWords: Int = 180): DataFrame =
    TextGen.docs(spark, mix, nDocs = math.max(8L, tokens / docWords), seed = seed, docWords = docWords)

  /** Budget a corpus to ≈`tokens` tokens (seeded down-sample). */
  def budget(df: DataFrame, tokens: Long, seed: Long): DataFrame =
    NGramLM.sampleBudget(df, tokens, seed)._1

  /** Instruction-data pool with Alpaca-CoT-style redundancy: `dupEpochs`
    * exact copies of a base pool whose responses are clean with probability
    * `quality`.
    */
  def instructionPool(spark: SparkSession, tokens: Long, quality: Double, dupEpochs: Int,
                      seed: Long): DataFrame = {
    val docWords = 70 // instruction pairs are short
    val uniqueTokens = tokens / math.max(1, dupEpochs)
    val base = TextGen.docs(spark, Seq(s"instr:$quality" -> 1.0),
      nDocs = math.max(8L, uniqueTokens / docWords), seed = seed, docWords = docWords)
    Formatters.mix(Seq(base -> dupEpochs.toDouble), seed)
  }

  /** Train the built-in quality classifier for instruction data: positives
    * are clean pairs, negatives degenerate ones — the Table 2/3 experiments'
    * analog of the GPT-3 classifier reproduced in Appendix B.1.
    */
  def instructionQualityModel(spark: SparkSession, seed: Long = 77L): QualityClassifier.Model = {
    val pos = TextGen.docs(spark, Seq("instr:1.0" -> 1.0), 300, seed, docWords = 70)
    val neg = TextGen.docs(spark, Seq("instr:0.0" -> 1.0), 300, seed + 1, docWords = 70)
    QualityClassifier.train(pos, neg, QualityClassifier.Config(numFeatures = 1 << 16, maxIter = 40))
  }

  /** The full Data-Juicer instruction-data refinement flow: recipe (dedup +
    * filters) → quality-classifier keep → diversity-aware sampling down to
    * `samples` docs (paper Sec. 8.1: "data merging and cleaning", "enhanced
    * sampling strategy").
    */
  def refineInstructions(pool: DataFrame, qc: QualityClassifier.Model, samples: Int): DataFrame = {
    val cleaned = Recipes.djPosttune.pipeline(fuse = true, reorder = true).run(pool)
    val kept    = QualityClassifier.keepLabel(QualityClassifier.score(qc, cleaned))
    Sampler.diversitySample(kept, "doc_score", samples)
  }
}
