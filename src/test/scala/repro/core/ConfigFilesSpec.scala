package repro.core

import repro.{SparkSpec, TestData}

/** The shipped recipe files in configs/ must stay parseable and hold the
  * recipes the experiments run.
  */
class ConfigFilesSpec extends SparkSpec with TestData {

  private val dir = sys.props.getOrElse("repro.configs.dir", "configs")

  test("dj-pretrain-en.yaml parses and matches the Table 2 recipe") {
    val r = Recipe.fromFile(s"$dir/dj-pretrain-en.yaml")
    assert(r.name == "dj-pretrain-en")
    assert(r.opSpecs.map(_._1) == Seq("fix_unicode_mapper", "remove_html_tags_mapper", "remove_links_mapper",
      "remove_emails_mapper", "whitespace_normalization_mapper", "text_length_filter", "word_count_filter",
      "stopword_ratio_filter", "language_score_filter", "flagged_words_filter", "special_char_ratio_filter",
      "word_repetition_filter", "word_entropy_filter", "exact_doc_deduplicator"))
    assert(r.ops(5) == Filters.TextLengthFilter(minLen = 80))
    assert(repro.exp.Recipes.djPretrain.name == r.name)
  }

  test("dj-posttune-sft-en.yaml parses and matches the Table 3 recipe") {
    val r = Recipe.fromFile(s"$dir/dj-posttune-sft-en.yaml")
    assert(r.name == "dj-posttune-sft-en")
    assert(r.opSpecs.map(_._1) == Seq("exact_doc_deduplicator", "fix_unicode_mapper",
      "whitespace_normalization_mapper", "text_length_filter", "flagged_words_filter", "stopword_ratio_filter",
      "word_repetition_filter"))
    assert(r.ops(3) == Filters.TextLengthFilter(minLen = 40))
    assert(repro.exp.Recipes.djPosttune.name == r.name)
  }

  test("dj-code.yaml parses and runs against tagged code samples") {
    val r = Recipe.fromFile(s"$dir/dj-code.yaml")
    val df = docsWithMeta(
      ("// Copyright X\ndef keep(me): good = me + 1\nval ok = keep(2) + more(tokens) * enough\n" +
        "def f(a): yes = a + 2\nval g = f(1) + f(2) + f(3)\nval h = g + g + g\n", Map("suffix" -> ".py", "stars" -> "50")),
      ("def lowstar(x): x + 1", Map("suffix" -> ".py", "stars" -> "1")),
      ("plain text file", Map("suffix" -> ".txt", "stars" -> "999")),
    )
    val out = r.pipeline().run(df)
    assert(ids(out) == Seq(0L))
    assert(!texts(out).head.contains("Copyright"))
  }

  test("every recipe file under configs/ and djbench/recipes/ loads and builds") {
    val files = Seq(dir, "djbench/recipes").flatMap { d =>
      val listed = new java.io.File(d).listFiles()
      assert(listed != null, s"no directory $d")
      listed.filter(_.getName.endsWith(".yaml")).map(_.getPath)
    }
    assert(files.size >= 5, files.mkString(", "))
    files.foreach(f => assert(Recipe.fromFile(f).ops.nonEmpty, f))
  }
}
