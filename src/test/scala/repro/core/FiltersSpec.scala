package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Filters._

/** Row-level stats + keep decisions of every Filter, plus DataFrame lifts. */
class FiltersSpec extends SparkSpec with TestData {

  private def statsOf(f: Filter, text: String): Map[String, Double] =
    f.computeStatsRow(new TextContext(text))

  private def keeps(f: Filter, text: String): Boolean = f.keepRow(statsOf(f, text))

  test("text length filter bounds") {
    val f = TextLengthFilter(minLen = 3, maxLen = 5)
    assert(!keeps(f, "ab") && keeps(f, "abc") && keeps(f, "abcde") && !keeps(f, "abcdef"))
  }

  test("word count filter") {
    val f = WordCountFilter(minWords = 2, maxWords = 3)
    assert(!keeps(f, "one") && keeps(f, "one two") && !keeps(f, "a b c d"))
    assert(statsOf(f, "x y z")("num_words") == 3.0)
  }

  test("avg word length filter") {
    val f = AvgWordLengthFilter(min = 2.0, max = 4.0)
    assert(keeps(f, "ab abc"))
    assert(!keeps(f, "a b c"))
    assert(!keeps(f, "extraordinarily lengthy"))
    assert(!keeps(f, "")) // empty ⇒ avg 0 < min
  }

  test("lines count filter") {
    val f = LinesCountFilter(min = 2, max = 3)
    assert(!keeps(f, "one line") && keeps(f, "a\nb") && !keeps(f, "a\nb\nc\nd"))
  }

  test("max line length filter") {
    val f = MaxLineLengthFilter(max = 10)
    assert(keeps(f, "short\nlines") && !keeps(f, "a\n" + "x" * 11))
  }

  test("avg line length filter ignores empty lines") {
    val f = AvgLineLengthFilter(min = 3.0, max = 10.0)
    assert(keeps(f, "abcd\n\nabcde"))
    assert(!keeps(f, "ab\nab"))
  }

  test("alphanumeric ratio filter") {
    val f = AlphanumericRatioFilter(min = 0.5)
    assert(keeps(f, "abcd!") && !keeps(f, "ab!!!!!!"))
  }

  test("whitespace ratio filter") {
    val f = WhitespaceRatioFilter(max = 0.4)
    assert(keeps(f, "ab cd ef"))
    assert(!keeps(f, "a    b    c"))
  }

  test("special char ratio filter tolerates basic punctuation and CJK") {
    val f = SpecialCharRatioFilter(max = 0.2)
    assert(keeps(f, "Normal text, with punctuation! And 中文。"))
    assert(!keeps(f, "j@u#n$k%^&*()_+=|\\{}[]"))
  }

  test("char repetition filter catches repeated banners") {
    val f = CharRepetitionFilter(n = 5, max = 0.15)
    assert(keeps(f, "a perfectly varied sentence without repeats"))
    assert(!keeps(f, "abcde" * 20))
  }

  test("word repetition filter catches duplicated 5-grams") {
    val f = WordRepetitionFilter(n = 5, max = 0.3)
    val clean = (1 to 40).map(i => s"w$i").mkString(" ")
    val loop  = "one two three four five six " * 10
    assert(keeps(f, clean) && !keeps(f, loop))
    assert(statsOf(f, "a b c").apply("word_rep_ratio") == 0.0) // too short for 5-grams
  }

  test("stopword ratio filter separates prose from soup") {
    val f = StopwordRatioFilter(min = 0.2)
    assert(keeps(f, "the cat sat on the mat and it was happy"))
    assert(!keeps(f, "lorem zorem vexum crastum blug"))
  }

  test("flagged words filter") {
    val f = FlaggedWordsFilter(max = 0.1)
    assert(keeps(f, "a mild nice sentence"))
    assert(!keeps(f, "damn hell crap idiot"))
  }

  test("language score filter en vs zh") {
    val en = LanguageScoreFilter("en", min = 0.5)
    assert(keeps(en, "this is a perfectly normal english sentence with the usual words"))
    assert(!keeps(en, "中文 中文 中文 中文 中文"))
    val zh = LanguageScoreFilter("zh", min = 0.5)
    assert(keeps(zh, "中文中文中文") && !keeps(zh, "english only text"))
  }

  test("perplexity filter: prose below soup") {
    val f = PerplexityFilter(maxPpl = 1e9)
    val prose = statsOf(f, "the cat is on the mat and it was there for a while")("perplexity")
    val soup  = statsOf(f, "zxqv wkjh plmn qwty zzkj xxyy")("perplexity")
    assert(prose < soup)
    assert(statsOf(f, "")("perplexity") > 1e9 - 2) // empty is worst-cased
  }

  test("word entropy filter flags repeated banner (low) and accepts prose") {
    val f = WordEntropyFilter(min = 1.5, max = 12.0)
    assert(!keeps(f, "spam spam spam spam spam"))
    assert(keeps(f, "a varied group of different words makes entropy higher"))
  }

  test("duplicate line ratio filter") {
    val f = DuplicateLineRatioFilter(max = 0.25)
    assert(keeps(f, "a\nb\nc\nd"))
    assert(!keeps(f, "a\na\na\nb"))
  }

  test("duplicate paragraph ratio filter") {
    val f = DuplicateParagraphRatioFilter(max = 0.25)
    assert(keeps(f, "pa\n\npb\n\npc"))
    assert(!keeps(f, "pa\n\npa\n\npa\n\npb"))
  }

  test("numeric ratio filter") {
    val f = NumericRatioFilter(max = 0.3)
    assert(keeps(f, "year 2024 was fine"))
    assert(!keeps(f, "123456 7890 12 3456"))
  }

  test("token count filter with standard vs code tokenizer") {
    val std = TokenCountFilter(min = 1, max = 100, tokenizer = "standard")
    assert(statsOf(std, "a+b c")("num_tokens") == 3.0)
    val code = TokenCountFilter(min = 1, max = 100, tokenizer = "code")
    assert(statsOf(code, "a+b c")("num_tokens") == 4.0)
    val cjk = TokenCountFilter(min = 1, max = 100, tokenizer = "cjk")
    assert(statsOf(cjk, "中文 ab")("num_tokens") == 4.0)
  }

  test("token count filter rejects an unknown tokenizer") {
    val e = intercept[IllegalArgumentException](TokenCountFilter(tokenizer = "sentencepiece"))
    assert(e.getMessage.contains("sentencepiece"))
  }

  test("symbol to word ratio filter") {
    val f = SymbolToWordRatioFilter(max = 0.5)
    assert(keeps(f, "plain words only here"))
    assert(!keeps(f, "## ** ~~ one ^^ || word"))
  }

  test("ellipsis line ratio filter") {
    val f = EllipsisLineRatioFilter(max = 0.4)
    assert(keeps(f, "full sentence\nanother one"))
    assert(!keeps(f, "teaser one...\nteaser two...\nfull line"))
  }

  test("bullet line ratio filter") {
    val f = BulletLineRatioFilter(max = 0.5)
    assert(keeps(f, "- one bullet\nplain line\nanother plain"))
    assert(!keeps(f, "- a\n- b\n- c\nplain"))
  }

  test("meta field filter keeps allowed values only") {
    val f = MetaFieldFilter("language", Seq("EN"))
    assert(f.keepMeta(Map("language" -> "EN")))
    assert(!f.keepMeta(Map("language" -> "ZH")))
    assert(!f.keepMeta(Map.empty))
  }

  test("suffix filter") {
    val f = SuffixFilter(Seq(".py"))
    assert(f.keepMeta(Map("suffix" -> ".py")) && !f.keepMeta(Map("suffix" -> ".txt")))
  }

  test("stars count filter parses numeric meta") {
    val f = StarsCountFilter(minStars = 100)
    assert(f.keepMeta(Map("stars" -> "1372")))
    assert(!f.keepMeta(Map("stars" -> "3")))
    assert(!f.keepMeta(Map("stars" -> "not-a-number")))
    assert(!f.keepMeta(Map.empty))
  }

  /** Each registry stats Filter's kept range at its default parameters; an
    * open side is ±Infinity.
    */
  private val defaultRanges: Map[String, (Double, Double)] = {
    val (ninf, inf) = (Double.NegativeInfinity, Double.PositiveInfinity)
    Map(
      "text_length_filter" -> (10.0, 1e6), "word_count_filter" -> (5.0, 1e6),
      "avg_word_length_filter" -> (2.0, 12.0), "lines_count_filter" -> (1.0, 1e5),
      "max_line_length_filter" -> (0.0, 5000.0), "avg_line_length_filter" -> (5.0, 2000.0),
      "alphanumeric_ratio_filter" -> (0.6, inf), "whitespace_ratio_filter" -> (ninf, 0.5),
      "special_char_ratio_filter" -> (ninf, 0.25), "char_repetition_filter" -> (ninf, 0.2),
      "word_repetition_filter" -> (ninf, 0.3), "stopword_ratio_filter" -> (0.1, inf),
      "flagged_words_filter" -> (ninf, 0.01), "language_score_filter" -> (0.5, inf),
      "perplexity_filter" -> (ninf, 1500.0), "word_entropy_filter" -> (1.5, 12.0),
      "duplicate_line_ratio_filter" -> (ninf, 0.3), "duplicate_paragraph_ratio_filter" -> (ninf, 0.3),
      "numeric_ratio_filter" -> (ninf, 0.3), "token_count_filter" -> (5.0, 1e6),
      "symbol_to_word_ratio_filter" -> (ninf, 0.4), "ellipsis_line_ratio_filter" -> (ninf, 0.3),
      "bullet_line_ratio_filter" -> (ninf, 0.9),
    )
  }

  test("each registry stats Filter at its defaults keeps exactly its closed range, and never NaN") {
    val fs = OpRegistry.specs.keys.toSeq.sorted.map(OpRegistry.build(_, Map.empty)).collect { case f: Filter => f }
    assert(fs.map(_.name).toSet == defaultRanges.keySet)
    for (f <- fs) {
      val (lo, hi) = defaultRanges(f.name)
      val clue = s"${f.name} on [$lo, $hi]"
      assert(f.statsKeys.size == 1, clue)
      def keeps(v: Double) = f.keepRow(Map(f.statsKeys.head -> v))
      assert(keeps(lo) && keeps(hi) && !keeps(Double.NaN), clue)
      if (!lo.isInfinite) assert(!keeps(Math.nextDown(lo)), clue)
      if (!hi.isInfinite) assert(!keeps(Math.nextUp(hi)), clue)
    }
  }

  test("filter names unique, stats keys unique, snake_case") {
    val fs = Filters.allStats
    assert(fs.map(_.name).distinct.size == fs.size)
    val keys = fs.flatMap(_.statsKeys)
    assert(keys.distinct.size == keys.size)
    assert(fs.map(_.name).forall(_.matches("[a-z0-9_]+")))
  }

  test("DataFrame apply computes stats then filters") {
    val df = docsDf("tiny", "this text is long enough to pass the filter easily")
    val out = TextLengthFilter(minLen = 10)(df)
    assert(out.count() == 1)
    val stats = out.select(Schema.Stats).collect()(0).getAs[Map[String, Double]](0)
    assert(stats("text_len") >= 10)
  }

  test("computeStats keeps stats keys written by other producers") {
    val df = docsDf("some reasonable sentence here")
    val first = Analyzer.computeStats(df, Seq(WordCountFilter()))
    // Inject a key no dimension writes: rerunning computeStats must keep it.
    val sentinel = first.withColumn(Schema.Stats,
      org.apache.spark.sql.functions.map_concat(
        org.apache.spark.sql.functions.col(Schema.Stats),
        org.apache.spark.sql.functions.map(
          org.apache.spark.sql.functions.lit("marker"), org.apache.spark.sql.functions.lit(42.0))))
    val again = Analyzer.computeStats(sentinel, Seq(WordCountFilter()))
    val stats = again.select(Schema.Stats).collect()(0).getAs[Map[String, Double]](0)
    assert(stats("marker") == 42.0)
  }

  test("meta filter DataFrame lift") {
    val df = docsWithMeta(("en doc", Map("language" -> "EN")), ("zh doc", Map("language" -> "ZH")))
    assert(texts(MetaFieldFilter("language", Seq("EN"))(df)) == Seq("en doc"))
  }
}
