package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The Analyzer tool (paper Sec. 5.2): computes per-sample statistics across
  * a default set of 13 dimensions (sample perplexity, word count, flagged
  * word percentage, line lengths, …) WITHOUT filtering anything — possible
  * because Filters decouple `computeStatsRow` from `keepRow` — and summarizes
  * each dimension with count / mean / std / min / max / quantile points.
  * The summary DataFrame is the "data probe" driving recipe refinement.
  * Its dimensions must never reject, so it folds them over one context
  * itself instead of running a [[RowStage]] pass.
  */
object Analyzer {

  /** The 13 default observation dimensions (one stats key each). */
  def defaultDims: Seq[Filter] = Seq(
    Filters.TextLengthFilter(),          // text_len
    Filters.WordCountFilter(),           // num_words
    Filters.AvgWordLengthFilter(),       // avg_word_len
    Filters.LinesCountFilter(),          // num_lines
    Filters.AvgLineLengthFilter(),       // avg_line_len
    Filters.AlphanumericRatioFilter(),   // alnum_ratio
    Filters.SpecialCharRatioFilter(),    // special_ratio
    Filters.CharRepetitionFilter(),      // char_rep_ratio
    Filters.WordRepetitionFilter(),      // word_rep_ratio
    Filters.StopwordRatioFilter(),       // stopword_ratio
    Filters.FlaggedWordsFilter(),        // flagged_ratio
    Filters.PerplexityFilter(),          // perplexity
    Filters.WordEntropyFilter(),         // word_entropy
  )

  /** Compute the stats of every dimension for every sample (no filtering),
    * all dimensions over one shared [[TextContext]] per sample. Each
    * dimension overwrites its keys; keys no dimension writes are kept.
    */
  def computeStats(df: DataFrame, dims: Seq[Filter] = defaultDims): DataFrame = {
    val fill = udf { (t: String, s: Map[String, Double]) =>
      val ctx = new TextContext(if (t == null) "" else t)
      dims.foldLeft(if (s == null) Map.empty[String, Double] else s)(_ ++ _.computeStatsRow(ctx))
    }
    Schema.ensure(df).withColumn(Schema.Stats, fill(col(Schema.Text), col(Schema.Stats)))
  }

  /** Summarize stats into one row per dimension:
    * (metric, count, mean, stddev, min, p25, p50, p75, p95, max).
    */
  def summarize(dfWithStats: DataFrame): DataFrame = {
    val kv = dfWithStats.select(explode(col(Schema.Stats)).as(Seq("metric", "value")))
    kv.groupBy("metric").agg(
      count("value") as "count",
      avg("value") as "mean",
      coalesce(stddev_samp(col("value")), lit(0.0)) as "stddev",
      min("value") as "min",
      percentile_approx(col("value"), lit(0.25), lit(10000)) as "p25",
      percentile_approx(col("value"), lit(0.50), lit(10000)) as "p50",
      percentile_approx(col("value"), lit(0.75), lit(10000)) as "p75",
      percentile_approx(col("value"), lit(0.95), lit(10000)) as "p95",
      max("value") as "max",
    ).orderBy("metric")
  }

  /** One-call data probe: compute default dimensions and summarize. */
  def probe(df: DataFrame): DataFrame = summarize(computeStats(df))

  /** Linguistic-diversity probe (paper Fig. 5's verb–noun pie): the top
    * `topK` leading non-stopword words and, for each, its top `topObj`
    * following non-stopword words — a proxy for root-verb / direct-object
    * diversity over instruction data.
    */
  def verbNounDiversity(df: DataFrame, topK: Int = 20, topObj: Int = 4): DataFrame = {
    val pair = udf { (t: String) =>
      val content = Tokenizers.words(t).filterNot(WordLists.stopwords.contains)
      if (content.length >= 2) content.sliding(2).map(a => (a(0), a(1))).toSeq else Seq.empty[(String, String)]
    }
    val pairs = df.select(explode(pair(col(Schema.Text))) as "p")
      .select(col("p._1") as "verb", col("p._2") as "obj")
    val topVerbs = pairs.groupBy("verb").count().orderBy(desc("count"), asc("verb")).limit(topK)
      .withColumnRenamed("count", "verb_count")
    import org.apache.spark.sql.expressions.Window
    val w = Window.partitionBy("verb").orderBy(desc("obj_count"), asc("obj"))
    pairs.join(topVerbs, "verb")
      .groupBy("verb", "verb_count", "obj").agg(count("*") as "obj_count")
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") <= topObj)
      .orderBy(desc("verb_count"), asc("verb"), asc("rank"))
      .select("verb", "verb_count", "obj", "obj_count")
  }
}
