package repro.exp

import repro.core.Recipe

/** The data recipes the experiments run — expressed as YAML exactly as a
  * Data-Juicer user would write them (paper Sec. 6.1), parsed through the
  * production [[repro.core.Recipe]] path so the experiments exercise the
  * config system end to end. The two recipes shipped in `configs/` are read
  * from there.
  */
object Recipes {

  /** The full Data-Juicer English pre-training recipe,
    * `configs/dj-pretrain-en.yaml`: PII/web mappers → quality filters →
    * exact dedup. What "Data-Juicer (RedPajama+Pile)" means in Tables 2/9.
    */
  val djPretrain: Recipe = fromConfig("dj-pretrain-en.yaml")

  /** A RefinedWeb-style baseline: heuristic filters only — no text repair,
    * no deduplication. What the Falcon row trains on.
    */
  val refinedWebLight: Recipe = Recipe.fromYaml(
    """name: refinedweb-light
      |ops:
      |  - text_length_filter: {min_len: 80}
      |  - stopword_ratio_filter: {min: 0.12}
      |  - language_score_filter: {lang: en, min: 0.55}
      |  - special_char_ratio_filter: {max: 0.15}
      |""".stripMargin)

  /** The post-tuning refinement recipe for instruction data,
    * `configs/dj-posttune-sft-en.yaml`: dedup first (Alpaca-CoT subsets
    * overlap heavily), then quality filters. The quality classifier and the
    * enhanced sampler are applied on top of this recipe by the experiments
    * (they are tools, not OPs — paper Sec. 6.2).
    */
  val djPosttune: Recipe = fromConfig("dj-posttune-sft-en.yaml")

  /** The 14-OP recipe of the OP-fusion experiment (paper Sec. 8.2.2: "14 OPs
    * — 5 Mappers, 8 Filters, and 1 Deduplicator, with 5 of these OPs being
    * fuse-able"). The five Words-context filters are the fusible group.
    */
  val fusion14: Recipe = Recipe.fromYaml(
    """name: fusion-14op
      |ops:
      |  - fix_unicode_mapper
      |  - remove_html_tags_mapper
      |  - remove_links_mapper
      |  - remove_long_words_mapper
      |  - whitespace_normalization_mapper
      |  - text_length_filter: {min_len: 40}
      |  - alphanumeric_ratio_filter: {min: 0.5}
      |  - lines_count_filter: {min: 1}
      |  - word_count_filter: {min_words: 10}
      |  - avg_word_length_filter: {min: 2.0, max: 14.0}
      |  - stopword_ratio_filter: {min: 0.1}
      |  - flagged_words_filter: {max: 0.02}
      |  - word_repetition_filter: {n: 5, max: 0.3}
      |  - exact_doc_deduplicator
      |""".stripMargin)

  /** A recipe file of `configs/`, which the build puts on the classpath. */
  private def fromConfig(file: String): Recipe = {
    val in = getClass.getResourceAsStream(s"/$file")
    require(in != null, s"recipe $file is not on the classpath")
    try Recipe.fromYaml(new String(in.readAllBytes(), "UTF-8")) finally in.close()
  }
}
