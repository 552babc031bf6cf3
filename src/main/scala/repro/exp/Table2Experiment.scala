package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.lm.{HelmLite, NGramLM}

/** Tables 2 and 9: pre-training data quality → model quality on the 16 HELM
  * core tasks.
  *
  * Five proxy models mirror the paper's rows:
  *  - Falcon-1.3B / RefinedWeb 350B  → web mixture, heuristic-filter-only
  *    recipe, 350-unit budget;
  *  - Pythia-1.4B / Pile 300B        → raw pile mixture, no processing,
  *    300-unit budget;
  *  - LLaMA-1.3B / Data-Juicer (RedPajama+Pile) 150B → union of both
  *    mixtures through the full DJ recipe, 150-unit budget;
  *  - + Alpaca-CoT-IFT (15B)         → continued training on the raw,
  *    heavily duplicated IFT pool;
  *  - + Our Refined IFT (4.7B)       → continued training on the
  *    DJ-refined (dedup + filters + classifier + enhanced-sampler) pool.
  *
  * The claim reproduced is the ordering: DJ-150 beats both 2×-token
  * baselines; refined IFT at ~31% of the raw IFT volume beats raw IFT.
  */
object Table2Experiment {

  final case class ModelRow(model: String, trainingData: String, tokensLabel: String,
                            paperScore: Double, score: Double, perTask: Seq[(String, Double)])

  final case class Result(rows: Seq[ModelRow]) {
    def table2: String = TableFmt.render(
      "Table 2 — average score on 16 HELM-lite tasks",
      Seq("Model", "Training Data", "#Tokens", "Paper", "Ours"),
      rows.map(r => Seq(r.model, r.trainingData, r.tokensLabel, TableFmt.f2(r.paperScore), TableFmt.f2(r.score))))

    def table9: String = {
      val models = rows.filterNot(_.trainingData.contains("Alpaca-CoT-IFT")) // paper's 4 Table-9 columns
      TableFmt.render(
        "Table 9 — per-task scores on the 16 HELM-lite core tasks",
        "Task" +: models.map(m => s"${m.model} [${m.trainingData}]"),
        HelmLite.tasks.map { t =>
          t.name +: models.map(m => TableFmt.f1(m.perTask.toMap.getOrElse(t.name, 0.0)))
        })
    }
  }

  /** @param tokensPerUnit synthetic tokens per "1B paper tokens"
    * @param evalDocs docs per HELM-lite task evaluation set
    */
  def run(spark: SparkSession, tokensPerUnit: Long = 10000L, evalDocs: Int = 40): Result = {
    def units(u: Double): Long = (u * tokensPerUnit).toLong

    // --- corpora -----------------------------------------------------
    val webRaw  = Corpora.raw(spark, Corpora.webMix,  units(500), seed = 201L)
    val pileRaw = Corpora.raw(spark, Corpora.pileMix, units(330), seed = 202L)

    val falconData = Corpora.budget(
      Recipes.refinedWebLight.pipeline(fuse = true, reorder = true).run(webRaw), units(350), 301L)
    val pythiaData = Corpora.budget(pileRaw, units(300), 302L)
    val djProcessed = Recipes.djPretrain.pipeline(fuse = true, reorder = true)
      .run(Formatters.mix(Seq(webRaw -> 0.5, pileRaw -> 0.5), 41L))
    val djData = Corpora.budget(djProcessed, units(150), 303L)

    val qc = Corpora.instructionQualityModel(spark)
    val iftPool    = Corpora.instructionPool(spark, units(15), quality = 0.8, dupEpochs = 4, seed = 205L)
    // ≈4.7 units of 70-word instruction pairs
    val refinedIft = Corpora.refineInstructions(iftPool, qc, math.max(4, (units(4.7) / 70.0).toInt))

    // --- models ------------------------------------------------------
    def fit(df: DataFrame): NGramLM.Model = NGramLM.train(df)
    val models = Seq(
      ("Falcon-1.3B", "RefinedWeb", "350B", 33.97, fit(falconData)),
      ("Pythia-1.4B", "Pile", "300B", 33.96, fit(pythiaData)),
      ("LLaMA-1.3B", "Data-Juicer (RedPajama+Pile)", "150B", 34.21, fit(djData)),
      ("LLaMA-1.3B", "+ Alpaca-CoT-IFT", "150B + 15B", 35.04, fit(djData.unionByName(dropExtra(iftPool)))),
      ("LLaMA-1.3B", "+ Our Refined IFT", "150B + 4.7B", 36.76, fit(djData.unionByName(dropExtra(refinedIft)))),
    )

    // --- evaluation --------------------------------------------------
    val rows = models.map { case (name, data, tok, paper, m) =>
      val perTask = HelmLite.evaluate(spark, m, nDocs = evalDocs)
      ModelRow(name, data, tok, paper, HelmLite.averageScore(perTask), perTask)
    }
    Result(rows)
  }

  /** Align schemas for union: keep only the unified columns. */
  private def dropExtra(df: DataFrame): DataFrame =
    df.select(Schema.columns.map(org.apache.spark.sql.functions.col): _*)
}
