package repro.core

import org.apache.spark.util.LongAccumulator
import repro.{SparkSpec, TestData}

/** Delegates to `inner` and counts `mapText` calls in a Spark accumulator. */
final class CountingMapper(val inner: Mapper, val calls: LongAccumulator) extends Mapper {
  def name: String = inner.name
  def mapText(text: String): String = { calls.add(1L); inner.mapText(text) }
}

/** Delegates to `inner` and counts `computeStatsRow` calls in a Spark accumulator. */
final class CountingFilter(val inner: Filter, val calls: LongAccumulator) extends Filter {
  def name: String = inner.name
  def statsKeys: Seq[String] = inner.statsKeys
  def contexts: Set[ContextKey.Value] = inner.contexts
  override def cost: Int = inner.cost
  def computeStatsRow(ctx: TextContext): Map[String, Double] = { calls.add(1L); inner.computeStatsRow(ctx) }
  def keepRow(stats: Map[String, Double]): Boolean = inner.keepRow(stats)
}

class RowStageSpec extends SparkSpec with TestData {
  import Mappers._, Filters._

  private val docs = (0 until 48).map { i =>
    val body = s"the document number $i is a perfectly fine sentence with the usual words in it"
    if (i % 6 == 0) "tiny"
    else if (i % 5 == 0) s"<div><p>$body</p><script>var x = $i;</script></div>"
    else if (i % 7 == 0) s"damn hell damn $body"
    else if (i % 8 == 1) "word " * 30
    else body
  }

  private def counted(ops: Seq[Op]): Seq[Op] = ops.map {
    case m: Mapper => new CountingMapper(m, spark.sparkContext.longAccumulator(m.name))
    case f: Filter => new CountingFilter(f, spark.sparkContext.longAccumulator(f.name))
    case other     => other
  }

  /** Expected calls per counted OP: the rows that reach it, by interpreting
    * the plan locally with the undecorated OPs.
    */
  private def expectedCalls(planned: Seq[Op]): Map[String, Long] = {
    var rows = docs
    planned.flatMap {
      case m: CountingMapper =>
        val reached = m.name -> rows.size.toLong
        rows = rows.map(m.inner.mapText)
        Seq(reached)
      case f: CountingFilter =>
        val reached = f.name -> rows.size.toLong
        rows = rows.filter(t => f.inner.keepRow(f.inner.computeStatsRow(new TextContext(t))))
        Seq(reached)
      case _ => Nil
    }.toMap
  }

  for {
    (recipe, ops) <- Seq[(String, Seq[Op])](
      "mappers, filters, exact dedup" -> Seq(
        FixUnicodeMapper(), RemoveHtmlTagsMapper(), WhitespaceNormalizationMapper(),
        TextLengthFilter(10), WordCountFilter(5), StopwordRatioFilter(0.1),
        FlaggedWordsFilter(0.01), WordRepetitionFilter(5, 0.3), Deduplicators.ExactDocDeduplicator()),
      "mapper, minhash dedup" -> Seq(WhitespaceNormalizationMapper(), Deduplicators.MinHashDeduplicator()))
    fuse <- Seq(false, true)
    cached <- Seq(false, true)
    traced <- Seq(false, true)
  } test(s"each row-level OP runs once per row that reaches it ($recipe, fuse=$fuse${if (cached) ", cached" else ""}" +
      s"${if (traced) ", traced" else ""})") {
    val cache = Option.when(cached)(new CacheManager(spark, java.nio.file.Files.createTempDirectory("djcache").toString))
    val pipe = Pipeline(counted(ops), fuse = fuse, reorder = fuse, tracer = Option.when(traced)(new Tracer()), cache = cache)
    // The input is checkpointed, since the optimizer would fold OPs over a
    // local relation into a constant; the output is collected whole, as a
    // write would, so no column pruning hides a re-evaluation.
    pipe.run(docsDf(docs: _*).localCheckpoint()).collect()
    val expected = expectedCalls(pipe.planned)
    val actual = pipe.ops.collect {
      case m: CountingMapper => m.name -> m.calls.value.longValue
      case f: CountingFilter => f.name -> f.calls.value.longValue
    }.toMap
    assert(actual == expected)
  }

  test("with fuse on, Filters tokenize a row once until a Mapper edits its text") {
    val texts = docs.zipWithIndex.map { case (t, i) => if (i % 3 == 1) t.toUpperCase else t }
    val before = Seq(WordCountFilter(5), TextLengthFilter(10))
    val ops: Seq[Op] = before ++ Seq(LowercaseMapper(), StopwordRatioFilter(0.1))
    val reachMapper = texts.filter(t => before.forall(f => f.keepRow(f.computeStatsRow(new TextContext(t)))))
    val edited = reachMapper.count(t => t.toLowerCase != t)
    assert(edited > 0 && edited < reachMapper.size)
    val input = docsDf(texts: _*).localCheckpoint()
    Tokenizers.wordCalls.set(0L)
    Pipeline(ops, fuse = true).run(input).collect()
    // Once per row for the first Words Filter, once more per row the Mapper changed.
    assert(Tokenizers.wordCalls.get() == texts.size + edited)
  }

  test("with fuse on, a Filter after a text-editing Mapper reads the edited text") {
    // "b x b b y b" is 6 words before the edit and "x y" 2 after: only the
    // edited text meets maxWords = 3.
    val ops: Seq[Op] = Seq(WordCountFilter(minWords = 1), RemoveHtmlTagsMapper(),
      WordCountFilter(minWords = 1, maxWords = 3))
    val out = Pipeline(ops, fuse = true).run(docsDf("<b>x</b> <b>y</b>").localCheckpoint())
    assert(out.select(Schema.Stats).collect().map(_.getMap[String, Double](0)("num_words")).toSeq == Seq(2.0))
  }

  test("a Filter computes its own stats even where an earlier Filter wrote its key") {
    // The 5-gram ratio of this text is 0.5, the 10-gram ratio 0.0.
    val text = "a b c d e f a b c d e f"
    val ops = Seq(WordRepetitionFilter(5, 0.6), WordRepetitionFilter(10, 0.0))
    assert(RowStage(ops, text, Map.empty, Map.empty) == Some((text, Map("word_rep_ratio" -> 0.0))))
    assert(rowsOf(Pipeline(ops).run(docsDf(text))).map(_._3) == Seq(Map("word_rep_ratio" -> 0.0)))
  }

  test("null text reads as empty and stays null unless a Mapper ran") {
    assert(RowStage(Seq(LowercaseMapper()), null, Map.empty, Map.empty) == Some(("", Map.empty)))
    assert(RowStage(Seq(TextLengthFilter(minLen = 0)), null, Map.empty, Map.empty) ==
      Some((null, Map("text_len" -> 0.0))))
  }
}
