package repro.core

/** Word lists shared by Filters and the synthetic corpus generator. */
object WordLists {
  /** Compact English stopword list — the "glue" vocabulary; natural text has
    * a substantial stopword ratio, gibberish does not.
    */
  val stopwords: Set[String] = Set(
    "the", "and", "of", "to", "in", "a", "is", "that", "for", "it", "as", "was",
    "with", "be", "by", "on", "not", "he", "this", "are", "or", "his", "from",
    "at", "which", "but", "have", "an", "had", "they", "you", "were", "their",
    "one", "all", "we", "can", "her", "has", "there", "been", "if", "more",
    "when", "will", "would", "who", "so", "no", "she", "other", "its", "may",
  )

  /** Placeholder flagged-word list (stand-in for the paper's external
    * flagged-words resources); the corpus noise model injects from it.
    */
  val flagged: Set[String] = Set(
    "damn", "hell", "crap", "idiot", "stupid", "filth", "jerk", "moron",
  )
}

/** The Filter pool: conditional sample removal OPs (paper Table 1: filter by
  * stats, meta-info, model scores, external resources). Each filter writes
  * its statistics into the `stats` map (decoupled `compute_stats`) and keeps
  * samples via a threshold predicate (`keepRow`); every stats Filter here
  * is a [[StatFilter]]: one key and one closed range of kept values.
  */
object Filters {
  import WordLists._

  private def ratio(num: Double, den: Double): Double = if (den <= 0) 0.0 else num / den

  /** How often each distinct item of `0 until size` occurs, in order of first
    * occurrence. Items are grouped by exact equality `same(i, j)` in an
    * open-addressing table; `hash` must agree on equal items. This is how the
    * repetition Filters count n-grams without building a string per n-gram.
    */
  private def occurrences(size: Int, hash: Int => Int, same: (Int, Int) => Boolean): Array[Int] = {
    var cap = 2
    while (cap < 2 * size) cap <<= 1
    val first = new Array[Int](cap) // 1 + the first item of the slot's class; 0 = free
    val hashes = new Array[Int](cap)
    val slotClass = new Array[Int](cap)
    val counts = new Array[Int](size)
    var classes = 0
    var i = 0
    while (i < size) {
      val h = hash(i)
      val m = h * 0x9E3779B9
      var slot = (m ^ (m >>> 16)) & (cap - 1)
      while (first(slot) != 0 && !(hashes(slot) == h && same(first(slot) - 1, i))) slot = (slot + 1) & (cap - 1)
      if (first(slot) == 0) {
        first(slot) = i + 1; hashes(slot) = h; slotClass(slot) = classes; classes += 1
      }
      counts(slotClass(slot)) += 1
      i += 1
    }
    java.util.Arrays.copyOf(counts, classes)
  }

  /** Keep samples whose character length lies in [minLen, maxLen]. */
  final case class TextLengthFilter(minLen: Int = 10, maxLen: Int = 1000000) extends StatFilter("text_len", Set.empty, minLen, maxLen) {
    val name = "text_length_filter"
    def stat(ctx: TextContext) = ctx.length.toDouble
  }

  /** Keep samples whose word count lies in [minWords, maxWords]. */
  final case class WordCountFilter(minWords: Int = 5, maxWords: Int = 1000000)
      extends StatFilter("num_words", Set(ContextKey.Words), minWords, maxWords) {
    val name = "word_count_filter"
    def stat(ctx: TextContext) = ctx.words.length.toDouble
  }

  /** Keep samples whose mean word length lies in [min, max] — catches both
    * char-soup (huge) and single-letter debris (tiny).
    */
  final case class AvgWordLengthFilter(min: Double = 2.0, max: Double = 12.0)
      extends StatFilter("avg_word_len", Set(ContextKey.Words), min, max) {
    val name = "avg_word_length_filter"
    def stat(ctx: TextContext) = {
      val w = ctx.words
      ratio(w.map(_.length.toDouble).sum, w.length.toDouble)
    }
  }

  /** Keep samples with a line count in [min, max]. */
  final case class LinesCountFilter(min: Int = 1, max: Int = 100000) extends StatFilter("num_lines", Set(ContextKey.Lines), min, max) {
    val name = "lines_count_filter"
    def stat(ctx: TextContext) = ctx.lines.length.toDouble
  }

  /** Keep samples whose longest line is within [min, max] chars (minified
    * JS / base64 blobs have enormous single lines).
    */
  final case class MaxLineLengthFilter(min: Int = 0, max: Int = 5000) extends StatFilter("max_line_len", Set(ContextKey.Lines), min, max) {
    val name = "max_line_length_filter"
    def stat(ctx: TextContext) = (if (ctx.lines.isEmpty) 0 else ctx.lines.map(_.length).max).toDouble
  }

  /** Keep samples whose mean line length is within [min, max] chars. */
  final case class AvgLineLengthFilter(min: Double = 5.0, max: Double = 2000.0)
      extends StatFilter("avg_line_len", Set(ContextKey.Lines), min, max) {
    val name = "avg_line_length_filter"
    def stat(ctx: TextContext) = {
      val ls = ctx.lines.filter(_.nonEmpty)
      ratio(ls.map(_.length.toDouble).sum, ls.length.toDouble)
    }
  }

  /** Keep samples whose alphanumeric-character ratio is at least `min`. */
  final case class AlphanumericRatioFilter(min: Double = 0.6) extends StatFilter("alnum_ratio", Set(ContextKey.Chars), lo = min) {
    val name = "alphanumeric_ratio_filter"
    def stat(ctx: TextContext) = ratio(ctx.alnumChars.toDouble, ctx.nonSpaceChars.toDouble)
  }

  /** Keep samples whose whitespace ratio is at most `max` (ascii-art, layout
    * debris).
    */
  final case class WhitespaceRatioFilter(max: Double = 0.5) extends StatFilter("space_ratio", Set(ContextKey.Chars), hi = max) {
    val name = "whitespace_ratio_filter"
    def stat(ctx: TextContext) = ratio((ctx.length - ctx.nonSpaceChars).toDouble, ctx.length.toDouble)
  }

  /** Keep samples whose special-character (non-alnum, non-space, non-basic-
    * punctuation) ratio is at most `max`.
    */
  final case class SpecialCharRatioFilter(max: Double = 0.25) extends StatFilter("special_ratio", Set(ContextKey.Chars), hi = max) {
    val name = "special_char_ratio_filter"
    private val basicPunct = ".,;:!?'\"()-\n\t "
    def stat(ctx: TextContext) = {
      val t = ctx.text
      var special = 0
      var i = 0
      while (i < t.length) {
        val c = t.charAt(i)
        if (!Character.isLetterOrDigit(c) && basicPunct.indexOf(c) < 0 && !Tokenizers.isCjk(c)) special += 1
        i += 1
      }
      ratio(special.toDouble, t.length.toDouble)
    }
  }

  /** Keep samples whose most frequent character n-gram covers at most `max`
    * of all character n-grams (catches `aaaaaa…` / repeated banners).
    */
  final case class CharRepetitionFilter(n: Int = 10, max: Double = 0.2)
      extends StatFilter("char_rep_ratio", Set(ContextKey.Chars), hi = max) {
    val name = "char_repetition_filter"
    def stat(ctx: TextContext) = {
      val t = ctx.text
      if (t.length < n + 1) 0.0
      else {
        // Window i's hash is String.hashCode of t.substring(i, i + n), rolled
        // forward one character at a time; pow = 31^n.
        val grams = t.length - n + 1
        val hashes = new Array[Int](grams)
        var h = 0
        var pow = 1
        var k = 0
        while (k < n) { h = 31 * h + t.charAt(k); pow *= 31; k += 1 }
        hashes(0) = h
        var i = 1
        while (i < grams) { h = 31 * h + t.charAt(i + n - 1) - pow * t.charAt(i - 1); hashes(i) = h; i += 1 }
        val counts = occurrences(grams, hashes(_), (a, b) => t.regionMatches(a, t, b, n))
        ratio(counts.max.toDouble, grams.toDouble)
      }
    }
  }

  /** Keep samples whose duplicated word n-grams cover at most `max` of all
    * word n-grams (the classic "dup 5-gram fraction" web filter).
    */
  final case class WordRepetitionFilter(n: Int = 5, max: Double = 0.3)
      extends StatFilter("word_rep_ratio", Set(ContextKey.Words), hi = max) {
    val name = "word_repetition_filter"
    def stat(ctx: TextContext) = {
      val w = ctx.words
      if (w.length < n) 0.0
      else {
        // Words hold no space, so two space-joined n-grams are equal exactly
        // when their word sequences are: compare interned word ids instead.
        val wordIds = new scala.collection.mutable.HashMap[String, Int]
        val ids = w.map(word => wordIds.getOrElseUpdate(word, wordIds.size))
        val grams = w.length - n + 1
        def gramHash(g: Int): Int = { var h = 0; var k = 0; while (k < n) { h = 31 * h + ids(g + k); k += 1 }; h }
        def sameGram(a: Int, b: Int): Boolean = { var k = 0; while (k < n && ids(a + k) == ids(b + k)) k += 1; k >= n }
        val dup = occurrences(grams, gramHash, sameGram).filter(_ > 1).sum
        ratio(dup.toDouble, grams.toDouble)
      }
    }
  }

  /** Keep samples whose stopword ratio is at least `min` — natural prose has
    * plenty; token soup does not (external-resource-backed filter).
    */
  final case class StopwordRatioFilter(min: Double = 0.1) extends StatFilter("stopword_ratio", Set(ContextKey.Words), lo = min) {
    val name = "stopword_ratio_filter"
    def stat(ctx: TextContext) = ratio(ctx.words.count(stopwords.contains).toDouble, ctx.words.length.toDouble)
  }

  /** Keep samples whose flagged-word ratio is at most `max` (detoxification). */
  final case class FlaggedWordsFilter(max: Double = 0.01) extends StatFilter("flagged_ratio", Set(ContextKey.Words), hi = max) {
    val name = "flagged_words_filter"
    def stat(ctx: TextContext) = ratio(ctx.words.count(flagged.contains).toDouble, ctx.words.length.toDouble)
  }

  /** Keep samples that look like the target language. Heuristic language-ID
    * score: for "en", the fraction of words that are ASCII-alphabetic plus a
    * stopword bonus; for "zh", the CJK character ratio.
    */
  final case class LanguageScoreFilter(lang: String = "en", min: Double = 0.5)
      extends StatFilter("lang_score", Set(ContextKey.Words), lo = min) {
    val name = "language_score_filter"
    def stat(ctx: TextContext) = lang match {
      case "zh" =>
        ratio(ctx.text.count(Tokenizers.isCjk).toDouble, ctx.nonSpaceChars.toDouble)
      case _ =>
        val w = ctx.words
        val alpha = w.count(_.forall(c => c >= 'a' && c <= 'z'))
        val stop  = w.count(stopwords.contains)
        0.7 * ratio(alpha.toDouble, w.length.toDouble) + 0.3 * math.min(1.0, 4.0 * ratio(stop.toDouble, w.length.toDouble))
    }
  }

  /** Keep samples whose unigram perplexity under a reference language model
    * is at most `maxPpl`. The reference is a word → log-probability table
    * (our stand-in for the paper's auxiliary KenLM models); OOV words get a
    * floor probability. Model-backed ⇒ cost 2 (reordered last).
    */
  final case class PerplexityFilter(
      maxPpl: Double = 1500.0,
      refLogP: Map[String, Double] = PerplexityFilter.defaultRef,
      oovLogP: Double = math.log(1e-6),
  ) extends StatFilter("perplexity", Set(ContextKey.Words), hi = maxPpl) {
    val name = "perplexity_filter"
    override val cost = 2
    /** The reference table enters the key as its size and an order-independent
      * fingerprint, so equal-size tables do not share cache entries.
      */
    override lazy val signature: String =
      s"PerplexityFilter($maxPpl,refSize=${refLogP.size},ref=${PerplexityFilter.fingerprint(refLogP)},$oovLogP)"
    def stat(ctx: TextContext) = {
      val w = ctx.words
      if (w.isEmpty) maxPpl + 1.0
      else {
        val sum = w.map(t => refLogP.getOrElse(t, oovLogP)).sum
        math.min(1e9, math.exp(-sum / w.length))
      }
    }
  }
  object PerplexityFilter {
    /** SHA-256 prefix of the table's entries in key order. */
    def fingerprint(ref: Map[String, Double]): String =
      java.security.MessageDigest.getInstance("SHA-256")
        .digest(ref.toSeq.sorted.map { case (w, p) => s"$w=$p" }.mkString("\n").getBytes("UTF-8"))
        .take(8).map("%02x".format(_)).mkString

    /** Default reference: Zipf over the stopword list with a modest mass on
      * everything else; enough to separate prose from token soup.
      */
    val defaultRef: Map[String, Double] = {
      val sw = WordLists.stopwords.toSeq.sorted
      val weights = sw.zipWithIndex.map { case (w, i) => w -> 1.0 / (i + 2.0) }
      val z = weights.map(_._2).sum / 0.45 // stopwords carry ~45% of natural prose mass
      weights.map { case (w, p) => w -> math.log(p / z) }.toMap
    }
  }

  /** Keep samples whose word-distribution Shannon entropy (bits) lies in
    * [min, max] — low = repeated banner, high = uniform random soup.
    */
  final case class WordEntropyFilter(min: Double = 1.5, max: Double = 12.0)
      extends StatFilter("word_entropy", Set(ContextKey.Words), min, max) {
    val name = "word_entropy_filter"
    def stat(ctx: TextContext) = {
      val w = ctx.words
      if (w.isEmpty) 0.0
      else {
        val n = w.length.toDouble
        w.groupBy(identity).values.map { g =>
          val p = g.length / n; -p * math.log(p) / math.log(2)
        }.sum
      }
    }
  }

  /** Keep samples where at most `max` of non-empty lines are duplicates of an
    * earlier line in the same sample.
    */
  final case class DuplicateLineRatioFilter(max: Double = 0.3) extends StatFilter("dup_line_ratio", Set(ContextKey.Lines), hi = max) {
    val name = "duplicate_line_ratio_filter"
    def stat(ctx: TextContext) = {
      val ls = ctx.trimmedLines
      ratio((ls.length - ls.distinct.length).toDouble, ls.length.toDouble)
    }
  }

  /** Keep samples where at most `max` of paragraphs are duplicates within the
    * sample.
    */
  final case class DuplicateParagraphRatioFilter(max: Double = 0.3)
      extends StatFilter("dup_para_ratio", Set(ContextKey.Paragraphs), hi = max) {
    val name = "duplicate_paragraph_ratio_filter"
    def stat(ctx: TextContext) = {
      val ps = ctx.paragraphs
      ratio((ps.length - ps.distinct.length).toDouble, ps.length.toDouble)
    }
  }

  /** Keep samples whose digit-character ratio is at most `max` (tables, logs,
    * serial-number dumps).
    */
  final case class NumericRatioFilter(max: Double = 0.3) extends StatFilter("numeric_ratio", Set(ContextKey.Chars), hi = max) {
    val name = "numeric_ratio_filter"
    def stat(ctx: TextContext) = ratio(ctx.text.count(Character.isDigit).toDouble, ctx.nonSpaceChars.toDouble)
  }

  /** Keep samples whose token count, under a selectable tokenizer
    * ([[Tokenizers.byName]]), lies in [min, max] — the paper's "number of
    * tokens" knob. The standard tokenizer reads the shared Words context.
    */
  final case class TokenCountFilter(min: Int = 5, max: Int = 1000000, tokenizer: String = "standard")
      extends StatFilter("num_tokens", Set(ContextKey.Words), min, max) {
    val name = "token_count_filter"
    private val tokenize = Tokenizers.byName(tokenizer)
    private val shared = tokenizer == "standard"
    def stat(ctx: TextContext) = (if (shared) ctx.words else tokenize(ctx.text)).length.toDouble
  }

  /** Keep samples whose symbol-to-word ratio (#, …, * vs words) is at most
    * `max` — markdown/forum debris.
    */
  final case class SymbolToWordRatioFilter(max: Double = 0.4) extends StatFilter("symbol_word_ratio", Set(ContextKey.Words), hi = max) {
    val name = "symbol_to_word_ratio_filter"
    private val symbols = Set('#', '*', '~', '^', '|')
    def stat(ctx: TextContext) = {
      val sym = ctx.text.count(symbols.contains) + "\\.\\.\\.".r.findAllIn(ctx.text).length
      ratio(sym.toDouble, math.max(1, ctx.words.length).toDouble)
    }
  }

  /** Keep samples where at most `max` of lines end with an ellipsis
    * (truncated-teaser listicles).
    */
  final case class EllipsisLineRatioFilter(max: Double = 0.3) extends StatFilter("ellipsis_line_ratio", Set(ContextKey.Lines), hi = max) {
    val name = "ellipsis_line_ratio_filter"
    def stat(ctx: TextContext) = {
      val ls = ctx.trimmedLines
      ratio(ls.count(l => l.endsWith("...") || l.endsWith("…")).toDouble, ls.length.toDouble)
    }
  }

  /** Keep samples where at most `max` of lines start with a bullet marker. */
  final case class BulletLineRatioFilter(max: Double = 0.9) extends StatFilter("bullet_line_ratio", Set(ContextKey.Lines), hi = max) {
    val name = "bullet_line_ratio_filter"
    private val bullets = Seq("-", "*", "•", "‣", "▪")
    def stat(ctx: TextContext) = {
      val ls = ctx.trimmedLines
      ratio(ls.count(l => bullets.exists(l.startsWith)).toDouble, ls.length.toDouble)
    }
  }

  // ---- meta-based filters (paper: "filter by meta-info", "GitHub star counts") ----

  /** Keep samples whose meta `key` is one of `allowed` (e.g. language=EN). */
  final case class MetaFieldFilter(key: String, allowed: Seq[String]) extends MetaFilter {
    val name = "meta_field_filter"
    private val set = allowed.toSet
    def keepMeta(meta: Map[String, String]) = meta.get(key).exists(set.contains)
  }

  /** Keep samples whose meta `suffix` is one of `suffixes` (code recipes). */
  final case class SuffixFilter(suffixes: Seq[String] = Seq(".py", ".scala", ".cpp", ".java")) extends MetaFilter {
    val name = "suffix_filter"
    private val set = suffixes.toSet
    def keepMeta(meta: Map[String, String]) = meta.get("suffix").exists(set.contains)
  }

  /** Keep samples whose numeric meta `stars` is at least `minStars` (the
    * paper's "removing GitHub codes based on their star counts" example).
    */
  final case class StarsCountFilter(minStars: Long = 10L) extends MetaFilter {
    val name = "stars_count_filter"
    def keepMeta(meta: Map[String, String]) =
      meta.get("stars").flatMap(s => scala.util.Try(s.toLong).toOption).exists(_ >= minStars)
  }

  /** All built-in stats filters with default parameters. */
  def allStats: Seq[Filter] = Seq(
    TextLengthFilter(), WordCountFilter(), AvgWordLengthFilter(), LinesCountFilter(),
    MaxLineLengthFilter(), AvgLineLengthFilter(), AlphanumericRatioFilter(),
    WhitespaceRatioFilter(), SpecialCharRatioFilter(), CharRepetitionFilter(),
    WordRepetitionFilter(), StopwordRatioFilter(), FlaggedWordsFilter(),
    LanguageScoreFilter(), PerplexityFilter(), WordEntropyFilter(),
    DuplicateLineRatioFilter(), DuplicateParagraphRatioFilter(), NumericRatioFilter(),
    TokenCountFilter(), SymbolToWordRatioFilter(), EllipsisLineRatioFilter(),
    BulletLineRatioFilter(),
  )
}
