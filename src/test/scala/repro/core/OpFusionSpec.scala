package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Filters._
import repro.core.Mappers._

class OpFusionSpec extends SparkSpec with TestData {

  test("mappers and deduplicators are fusion barriers") {
    val dedup = Deduplicators.ExactDocDeduplicator()
    val ops: Seq[Op] = Seq(WordCountFilter(1), LowercaseMapper(), PerplexityFilter(1e9), TextLengthFilter(1),
      dedup, StopwordRatioFilter(0.0), TextLengthFilter(2))
    // Each Filter run is sorted by cost; nothing moves across a barrier.
    assert(OpFusion.plan(ops, reorder = true) == Seq(WordCountFilter(1), LowercaseMapper(), TextLengthFilter(1),
      PerplexityFilter(1e9), dedup, TextLengthFilter(2), StopwordRatioFilter(0.0)))
  }

  test("reordering sorts a filter run by cost, stable") {
    val ops: Seq[Op] = Seq(PerplexityFilter(1e9), TextLengthFilter(1), WordCountFilter(1))
    val planned = OpFusion.plan(ops, reorder = true)
    assert(planned.map(_.asInstanceOf[Filter].cost) == Seq(0, 1, 2))
  }

  test("MetaFilters join a sortable Filter run as cost-0 OPs") {
    val meta = MetaFieldFilter("language", Seq("EN"))
    val ops: Seq[Op] = Seq(WordCountFilter(1), meta, TextLengthFilter(1))
    // The text_length_filter after the meta_field_filter moves ahead of the
    // Words Filter; the MetaFilter runs first, as its cost is 0.
    assert(OpFusion.plan(ops, reorder = true) == Seq(meta, TextLengthFilter(1), WordCountFilter(1)))
    assert(OpFusion.plan(ops, reorder = false) == ops)
  }

  test("fused pipeline output equals unfused output exactly") {
    val docs = (0 until 60).map { i =>
      if (i % 5 == 0) "tiny"
      else if (i % 7 == 0) "damn hell and some long enough words for all the other filters to pass"
      else s"the document number $i is a perfectly fine sentence with the usual words in it"
    }
    val df = docsDf(docs: _*)
    val ops = Recipes14()
    val plain = Pipeline(ops).run(df)
    val fused = Pipeline(ops, fuse = true, reorder = true).run(df)
    assert(ids(plain) == ids(fused))
    assert(texts(plain.orderBy(Schema.Id)) == texts(fused.orderBy(Schema.Id)))
  }

  test("fusion reduces tokenizer invocations") {
    val df = docsDf((0 until 30).map(i => s"the sample number $i with several common words to tokenize"): _*)
    val filters: Seq[Op] = Seq(WordCountFilter(2), StopwordRatioFilter(0.05), WordRepetitionFilter(5, 0.5))
    Tokenizers.wordCalls.set(0)
    Pipeline(filters, fuse = false).run(df).count()
    val plainCalls = Tokenizers.wordCalls.get()
    Tokenizers.wordCalls.set(0)
    Pipeline(filters, fuse = true).run(df).count()
    val fusedCalls = Tokenizers.wordCalls.get()
    assert(fusedCalls < plainCalls, s"fused=$fusedCalls plain=$plainCalls")
  }

  test("reordered-only pipeline output equals plain output") {
    val df = docsDf((0 until 40).map(i => s"doc $i with the usual words and content here"): _*)
    val ops: Seq[Op] = Seq(PerplexityFilter(5000), TextLengthFilter(10), StopwordRatioFilter(0.05))
    val a = Pipeline(ops).run(df)
    val b = Pipeline(ops, reorder = true).run(df)
    assert(ids(a) == ids(b))
  }

  private def Recipes14(): Seq[Op] = Seq(
    FixUnicodeMapper(), WhitespaceNormalizationMapper(),
    TextLengthFilter(10), WordCountFilter(3), StopwordRatioFilter(0.05),
    FlaggedWordsFilter(0.01), WordRepetitionFilter(5, 0.5),
    Deduplicators.ExactDocDeduplicator(),
  )
}
