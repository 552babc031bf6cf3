package repro.corpus

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Registries of the datasets the paper's recipes are built from:
  *
  *  - the 15-component pre-training mixture of Table 7 (RedPajama + Pile
  *    subsets), with per-component noise profiles and epoch weights;
  *  - the 39-dataset Alpaca-CoT post-tuning collection of Table 8, with the
  *    multi-valued tag taxonomy (language / usage / task type / generation
  *    method) Data-Juicer adds.
  *
  * Paper token counts are scaled by `scale` (default 1e-6: 1 synthetic token
  * ≙ 1M paper tokens) — the substitution documented in DESIGN.md.
  */
object Components {

  /** One pre-training component: the paper's token count, its epoch weight
    * in the sampling proportion (Books ×2, Wikipedia ×2.5), its noise
    * mixture, and a typical document length in words.
    */
  final case class ComponentSpec(
      name: String,
      paperTokens: Long,
      epochs: Double,
      mix: TextGen.Mix,
      docWords: Int,
  )

  private val webMix: TextGen.Mix = Seq(
    "clean" -> 0.38, "html" -> 0.18, "boilerplate" -> 0.18, "gibberish" -> 0.12,
    "flagged" -> 0.05, "repeat" -> 0.05, "short" -> 0.04,
  )
  private val cleanishMix: TextGen.Mix = Seq(
    "clean" -> 0.80, "boilerplate" -> 0.06, "gibberish" -> 0.05, "repeat" -> 0.04, "short" -> 0.05,
  )
  private val academicMix: TextGen.Mix = Seq(
    "clean" -> 0.78, "repeat" -> 0.06, "gibberish" -> 0.06, "boilerplate" -> 0.05, "short" -> 0.05,
  )
  private val codeMix: TextGen.Mix = Seq("code" -> 0.7, "codeNoise" -> 0.3)

  /** Table 7's 15 components, paper token counts verbatim. */
  val pretraining: Seq[ComponentSpec] = Seq(
    ComponentSpec("CommonCrawl",      360925581674L, 1.0, webMix,      170),
    ComponentSpec("C4",               181951688729L, 1.0, Seq("clean" -> 0.55, "html" -> 0.10, "boilerplate" -> 0.12, "gibberish" -> 0.10, "flagged" -> 0.04, "repeat" -> 0.05, "short" -> 0.04), 150),
    ComponentSpec("GitHub",            65076921292L, 1.0, codeMix,     200),
    ComponentSpec("Books",             26389944579L, 2.0, Seq("clean" -> 0.92, "repeat" -> 0.04, "short" -> 0.04), 400),
    ComponentSpec("Wikipedia",         17615935449L, 2.5, Seq("clean" -> 0.90, "repeat" -> 0.05, "short" -> 0.05), 220),
    ComponentSpec("arXiv",             29093082586L, 1.0, academicMix, 320),
    ComponentSpec("PubMed Central",    25589708647L, 1.0, academicMix, 280),
    ComponentSpec("StackExchange",     19793629900L, 1.0, Seq("clean" -> 0.62, "html" -> 0.12, "repeat" -> 0.08, "gibberish" -> 0.08, "boilerplate" -> 0.06, "short" -> 0.04), 140),
    ComponentSpec("FreeLaw",           13057506102L, 1.0, academicMix, 300),
    ComponentSpec("PubMed Abstracts",   5208343613L, 1.0, cleanishMix, 90),
    ComponentSpec("USPTO",              4021281155L, 1.0, academicMix, 200),
    ComponentSpec("EuroParl",            780962770L, 1.0, cleanishMix, 180),
    ComponentSpec("HackerNews",          485584871L, 1.0, Seq("clean" -> 0.60, "html" -> 0.12, "boilerplate" -> 0.10, "gibberish" -> 0.08, "flagged" -> 0.06, "short" -> 0.04), 110),
    ComponentSpec("PhilPapers",          478040431L, 1.0, academicMix, 260),
    ComponentSpec("NIH ExPorter",        436414852L, 1.0, cleanishMix, 120),
  )

  /** Generate one component at `scale` synthetic tokens per paper token. */
  def generate(spark: SparkSession, c: ComponentSpec, scale: Double, seed: Long = 11L): DataFrame = {
    val targetTokens = math.max(1L, (c.paperTokens * scale).toLong)
    val nDocs = math.max(4L, targetTokens / c.docWords)
    TextGen.docs(spark, c.mix, nDocs, seed = seed + c.name.hashCode, docWords = c.docWords,
      metaExtra = Map("component" -> c.name))
  }

  // ------------------------------------------------------------------
  // Post-tuning registry (Table 8)
  // ------------------------------------------------------------------

  /** One Alpaca-CoT-collection dataset with Data-Juicer's multi-valued tags.
    * `quality` drives the synthetic instruction data's response quality.
    */
  final case class PostTuningDataset(
      name: String,
      languages: Seq[String],  // EN | ZH | Multilingual
      usages: Seq[String],     // MRD | IFT | SFT | Preference
      tasks: Seq[String],      // Multi-Task | Task-Specific
      generation: String,      // Human-Generated | Self-Instruct | Mixed | Collection
      quality: Double,
      nSamples: Int,
  )

  /** The 39-dataset registry. Tag assignment is constructed to reproduce the
    * exact category counts of Table 8 (languages sum to 45, usages to 47,
    * tasks to 40, generation to 39 — datasets carry multiple tags, as in the
    * original collection). Four real subset names are kept because the
    * Table 3 experiment selects them by (SFT, EN).
    */
  val postTuning: Seq[PostTuningDataset] = (0 until 39).map { i =>
    val name = i match {
      case 19 => "alpaca"
      case 20 => "gpteacher"
      case 21 => "fastchat"
      case 22 => "gpt4all"
      case _  => f"alpaca_cot_subset_$i%02d"
    }
    val languages =
      if (i <= 5) Seq("EN", "ZH")
      else if (i <= 27) Seq("EN")
      else if (i <= 35) Seq("ZH")
      else Seq("Multilingual")
    val usages =
      if (i <= 1) Seq("MRD", "SFT")
      else if (i <= 7) Seq("IFT", "SFT")
      else if (i <= 18) Seq("IFT")
      else if (i <= 33) Seq("SFT")
      else Seq("Preference")
    val tasks =
      if (i == 0) Seq("Multi-Task", "Task-Specific")
      else if (i <= 26) Seq("Multi-Task")
      else Seq("Task-Specific")
    val generation =
      if (i <= 2) "Human-Generated"
      else if (i <= 14) "Self-Instruct"
      else if (i <= 19) "Mixed"
      else "Collection of Datasets"
    // Quality varies by dataset so filtering/sampling has signal to exploit.
    val quality = Seq(0.9, 0.75, 0.6, 0.5, 0.4)(i % 5)
    PostTuningDataset(name, languages, usages, tasks, generation, quality, nSamples = 400 + (i % 7) * 100)
  }

  /** Generate one post-tuning dataset: instruction pairs at its quality. */
  def generatePostTuning(spark: SparkSession, d: PostTuningDataset, scale: Double = 1.0, seed: Long = 23L): DataFrame = {
    val n = math.max(8L, (d.nSamples * scale).toLong)
    val mix: TextGen.Mix = Seq(s"instr:${d.quality}" -> 1.0)
    TextGen.docs(spark, mix, n, seed = seed + d.name.hashCode, docWords = 60,
      metaExtra = Map(
        "dataset"    -> d.name,
        "language"   -> d.languages.mkString(","),
        "usage"      -> d.usages.mkString(","),
        "task"       -> d.tasks.mkString(","),
        "generation" -> d.generation,
      ))
  }

  /** Tag-category marginal counts over a registry — the Table 8 computation,
    * done as a DataFrame aggregation over the exploded tag sets.
    */
  def tagCounts(spark: SparkSession): DataFrame = {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val rows = postTuning.flatMap { d =>
      d.languages.map(("Language", _)) ++ d.usages.map(("Usage", _)) ++
        d.tasks.map(("Task Type", _)) ++ Seq(("Generation Method", d.generation))
    }
    rows.toDF("category", "sub_category")
      .groupBy("category", "sub_category").agg(count("*") as "datasets")
      .orderBy("category", "sub_category")
  }
}
