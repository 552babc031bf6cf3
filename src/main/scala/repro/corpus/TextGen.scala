package repro.corpus

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Schema, WordLists}
import scala.util.hashing.MurmurHash3

/** Deterministic synthetic-language generator — the stand-in for the paper's
  * raw corpora (CommonCrawl, the Pile, …). Design goals:
  *
  *  1. **Learnable structure.** Clean text is a Markov walk over a Zipf
  *     vocabulary: from the previous token the next is one of three
  *     hash-determined candidates with probabilities 0.6/0.3/0.1 (a bigram
  *     grammar, so a scaled-down n-gram LM can cover the state space). An LM
  *     trained on clean text approaches 60% top-1 next-token accuracy on
  *     held-out clean text — model quality becomes a measurable function of
  *     training-data quality.
  *  2. **Mechanistic noise.** Each noise type corrupts the LM in the way its
  *     real counterpart does and is removable by the OP built for it:
  *     - `boilerplate`: a handful of exact-duplicate templates whose
  *       continuations are the grammar's LOW-probability candidates — mass
  *       duplication flips trigram argmaxes (why dedup matters, paper [45]);
  *     - `gibberish`: uniform random content words + unicode soup — no
  *       stopwords, no structure (stopword/lang/special-char filters);
  *     - `flagged`: clean text salted with flagged words (flagged filter);
  *     - `htmlWrapped`: clean text buried in tags/links — recoverable by
  *       Mappers, junk tokens if left alone;
  *     - `repeatedNgrams`: one clean sentence looped (repetition filters).
  *  3. **Determinism.** Every doc is a pure function of (kind, seed, id);
  *     generators run inside Spark UDFs over `spark.range`.
  */
object TextGen {

  val VocabSize = 2000
  private val Syllables = Array(
    "ba", "be", "bo", "da", "de", "do", "ka", "ke", "ko", "la", "le", "lo",
    "ma", "me", "mo", "na", "ne", "no", "ra", "re", "ro", "sa", "se", "so",
    "ta", "te", "to", "va", "ve", "vo", "za", "ze", "zo", "pi", "pu", "gu",
  )

  /** Content vocabulary: pseudo-words, index-deterministic. */
  lazy val vocab: Array[String] = Array.tabulate(VocabSize) { i =>
    val r = rnd(i * 2654435761L)
    val n = 2 + r.nextInt(3)
    (0 until n).map(_ => Syllables(r.nextInt(Syllables.length))).mkString
  }

  private val stopArr: Array[String] = WordLists.stopwords.toArray.sorted
  private val flaggedArr: Array[String] = WordLists.flagged.toArray.sorted

  @inline private def h(parts: String*): Int = MurmurHash3.orderedHash(parts, 0x9747b28c)

  /** splitmix64 scramble — java.util.Random seeded with linearly-spaced
    * values (seed + docId) produces heavily correlated first draws, which
    * silently collapses mixtures; every generator scrambles first.
    */
  @inline private def sm64(x0: Long): Long = {
    var x = x0 + 0x9e3779b97f4a7c15L
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Seed-scrambled RNG; all generators below must use this. */
  private def rnd(seed: Long): java.util.Random = new java.util.Random(sm64(seed))

  /** Public scrambled RNG for other per-id generators (HELM-lite eval sets,
    * judge prompts, …) — never seed java.util.Random with id-linear values.
    */
  def rng(seed: Long): java.util.Random = rnd(seed)

  /** Zipf-ish draw over the content vocabulary. */
  private def zipfWord(r: java.util.Random): String = {
    val u = r.nextDouble()
    val idx = math.min(VocabSize - 1, (math.pow(u, 2.2) * VocabSize).toInt)
    vocab(idx)
  }

  /** The grammar's fixed candidate set for a state: index 0 is the
    * high-probability continuation. The transition is keyed on the PREVIOUS
    * token only (a bigram grammar) so a scaled-down LM can actually cover the
    * state space — `w1` is accepted for API symmetry but ignored. Stopwords
    * occupy 2 of every 5 candidate slots so natural text keeps a realistic
    * stopword ratio.
    */
  def candidates(@scala.annotation.unused w1: String, w2: String): Array[String] = {
    val base = h("en", w2)
    Array.tabulate(3) { i =>
      val hv = h("en", w2, i.toString)
      if (math.floorMod(base + i, 5) < 2) stopArr(math.floorMod(hv, stopArr.length))
      else vocab(math.floorMod(hv, VocabSize))
    }
  }

  /** One grammar step: candidate 0 w.p. 0.6, 1 w.p. 0.3, 2 w.p. 0.1. */
  private def step(w1: String, w2: String, r: java.util.Random): String = {
    val c = candidates(w1, w2)
    val u = r.nextDouble()
    if (u < 0.6) c(0) else if (u < 0.9) c(1) else c(2)
  }

  /** Clean English-like text: `nWords` tokens of grammar walk, sentence- and
    * paragraph-structured.
    */
  def cleanText(seed: Long, nWords: Int): String = {
    val r = rnd(seed)
    val sb = new StringBuilder
    var w1 = zipfWord(r); var w2 = zipfWord(r)
    sb.append(cap(w1)).append(' ').append(w2)
    var inSentence = 2
    var sinceParagraph = 0
    var produced = 2
    while (produced < nWords) {
      val next = step(w1, w2, r)
      if (inSentence >= 8 + r.nextInt(12)) {
        sb.append(". ")
        sinceParagraph += inSentence
        if (sinceParagraph > 60 + r.nextInt(60)) { sb.append("\n\n"); sinceParagraph = 0 }
        sb.append(cap(next))
        inSentence = 1
      } else { sb.append(' ').append(next); inSentence += 1 }
      w1 = w2; w2 = next; produced += 1
    }
    sb.append('.').toString
  }

  private def cap(w: String): String = w.capitalize

  /** Adversarial boilerplate: grammar walks that ALWAYS take the
    * low-probability candidate, prefixed with web chrome. Only `nTemplates`
    * distinct texts exist; real corpora repeat them massively.
    */
  def boilerplate(template: Int, nTemplates: Int = 10): String = {
    val t = math.floorMod(template, nTemplates)
    val r = rnd(0xb01L + t)
    val sb = new StringBuilder("click here subscribe now accept cookie policy terms\n")
    var w1 = zipfWord(r); var w2 = zipfWord(r)
    sb.append(w1).append(' ').append(w2)
    (0 until 150).foreach { _ =>
      val next = candidates(w1, w2)(2) // the 0.1-probability continuation
      sb.append(' ').append(next)
      w1 = w2; w2 = next
    }
    sb.toString
  }

  /** A degraded-but-fluent-looking walk: every step takes a LOW-probability
    * grammar branch (index 1 or 2), from a seed-specific start. Unlike
    * [[boilerplate]] these are all distinct — the judge's "bad responses",
    * never seen verbatim in any training set.
    */
  def corruptedText(seed: Long, nWords: Int): String = {
    val r = rnd(seed ^ 0xc0bbadL)
    val sb = new StringBuilder
    var w1 = zipfWord(r); var w2 = zipfWord(r)
    sb.append(w1).append(' ').append(w2)
    (2 until nWords).foreach { _ =>
      val next = candidates(w1, w2)(1 + r.nextInt(2))
      sb.append(' ').append(next)
      w1 = w2; w2 = next
    }
    sb.toString
  }

  /** Structureless token soup: uniform content words, no stopwords, plus
    * occasional unicode junk runs.
    */
  def gibberish(seed: Long, nWords: Int): String = {
    val r = rnd(seed)
    val sb = new StringBuilder
    (0 until nWords).foreach { i =>
      if (i > 0) sb.append(' ')
      if (r.nextDouble() < 0.15) {
        (0 until 6).foreach(_ => sb.append((0x2600 + r.nextInt(200)).toChar))
      } else sb.append(vocab(r.nextInt(VocabSize)))
    }
    sb.toString
  }

  /** Clean text with flagged words injected at ~6% of positions. */
  def flaggedText(seed: Long, nWords: Int): String = {
    val base = cleanText(seed, nWords)
    val r = rnd(seed ^ 0xf1a6L)
    base.split(" ").map { w =>
      if (r.nextDouble() < 0.06) flaggedArr(r.nextInt(flaggedArr.length)) else w
    }.mkString(" ")
  }

  /** Clean text buried in HTML tags, links and e-mail debris — recoverable
    * by the Mapper pool.
    */
  def htmlWrapped(seed: Long, nWords: Int): String = {
    val inner = cleanText(seed, nWords)
    val r = rnd(seed ^ 0x47a1L)
    val paras = inner.split("\n\n")
    paras.map { p =>
      val link = s"http://site${r.nextInt(1000)}.example.com/page${r.nextInt(100)} "
      val mail = s"user${r.nextInt(1000)}@mail.example.com "
      s"<div class=\"c${r.nextInt(9)}\"><p>$link$p $mail</p></div>"
    }.mkString("\n")
  }

  /** One clean sentence looped many times — intra-doc repetition. */
  def repeatedNgrams(seed: Long, nWords: Int): String = {
    val sentence = cleanText(seed, 12)
    val times = math.max(2, nWords / 12)
    Array.fill(times)(sentence).mkString(" ")
  }

  /** Chinese-like text: CJK walk with its own grammar salt. */
  def cjkText(seed: Long, nChars: Int): String = {
    val r = rnd(seed)
    val sb = new StringBuilder
    var prev = 0x4e00 + r.nextInt(800)
    (0 until nChars).foreach { _ =>
      sb.append(prev.toChar)
      val c = h("zh", prev.toString, (if (r.nextDouble() < 0.7) 0 else r.nextInt(3)).toString)
      prev = 0x4e00 + math.floorMod(c, 800)
      if (r.nextDouble() < 0.06) sb.append('。')
    }
    sb.toString
  }

  /** Messy CJK: random chars over a much wider range mixed with latin junk. */
  def cjkNoise(seed: Long, nChars: Int): String = {
    val r = rnd(seed)
    val sb = new StringBuilder
    (0 until nChars).foreach { _ =>
      if (r.nextDouble() < 0.3) sb.append(('a' + r.nextInt(26)).toChar)
      else sb.append((0x4e00 + r.nextInt(20000)).toChar)
    }
    sb.toString
  }

  /** Code-like text: indented identifier/symbol lines from a code grammar. */
  def codeText(seed: Long, nLines: Int, quality: Double = 1.0): String = {
    val r = rnd(seed)
    val kw = Array("def", "val", "if", "else", "for", "return", "class", "import")
    val sb = new StringBuilder
    (0 until nLines).foreach { _ =>
      val indent = "  " * r.nextInt(3)
      val k = kw(r.nextInt(kw.length))
      val id1 = vocab(r.nextInt(200)); val id2 = vocab(r.nextInt(200))
      if (r.nextDouble() < quality)
        sb.append(s"$indent$k $id1($id2): ${vocab(r.nextInt(200))} = $id2 + ${r.nextInt(100)}\n")
      else
        sb.append(s"$indent${gibberish(r.nextLong(), 6)};;${"x" * r.nextInt(40)}\n")
    }
    sb.toString
  }

  /** Instruction–response pair (post-tuning sample). `quality < 1` corrupts
    * the response with low-probability continuations and junk.
    */
  def instructionPair(seed: Long, quality: Double): String = {
    val r = rnd(seed)
    val inst = cleanText(seed ^ 0x11L, 12 + r.nextInt(8))
    val resp =
      if (r.nextDouble() < quality) cleanText(seed ^ 0x22L, 40 + r.nextInt(30))
      else boilerplate(r.nextInt(10)) // degenerate low-quality response
    s"instruction: $inst\nresponse: $resp"
  }

  // ------------------------------------------------------------------
  // Spark-side generation
  // ------------------------------------------------------------------

  /** Mixture component: (docKind, weight). Kinds: clean, boilerplate,
    * gibberish, flagged, html, repeat, code, cjk, cjkNoise, instr:q (quality
    * in [0,1] after the colon).
    */
  type Mix = Seq[(String, Double)]

  /** Generate `nDocs` docs of a mixture as a unified DataFrame. Doc kind is
    * chosen deterministically from (seed, id); `meta.kind` records it (used
    * only by tests and diagnostics, never by recipes under evaluation).
    */
  def docs(spark: SparkSession, mix: Mix, nDocs: Long, seed: Long,
           docWords: Int = 180, metaExtra: Map[String, String] = Map.empty): DataFrame = {
    val total = mix.map(_._2).sum
    val cum = mix.scanLeft(0.0)(_ + _._2).tail.map(_ / total)
    val kinds = mix.map(_._1)
    val gen = udf { (id: Long) =>
      val r = rnd(seed * 1000003L + id)
      val u = r.nextDouble()
      val kind = kinds(cum.indexWhere(u <= _) match { case -1 => kinds.length - 1; case i => i })
      val text = genDoc(kind, seed * 7919L + id, docWords, r)
      (text, kind)
    }
    val base = spark.range(nDocs)
      .withColumn("__g", gen(col("id")))
      .select(
        col("id"),
        col("__g._1") as Schema.Text,
        map_concat(
          map(lit("kind"), col("__g._2")),
          typedLit(metaExtra),
        ) as Schema.Meta,
      )
    Schema.ensure(base)
  }

  /** Generate one doc of `kind`. */
  def genDoc(kind: String, seed: Long, docWords: Int, @scala.annotation.unused r: java.util.Random): String = kind match {
    case "clean"       => cleanText(seed, docWords)
    case "boilerplate" => boilerplate(math.floorMod(seed, 10L).toInt)
    case "gibberish"   => gibberish(seed, docWords)
    case "flagged"     => flaggedText(seed, docWords)
    case "html"        => htmlWrapped(seed, docWords)
    case "repeat"      => repeatedNgrams(seed, docWords)
    case "short"       => cleanText(seed, 3)
    case "code"        => codeText(seed, docWords / 6)
    case "codeNoise"   => codeText(seed, docWords / 6, quality = 0.3)
    case "cjk"         => cjkText(seed, docWords * 2)
    case "cjkNoise"    => cjkNoise(seed, docWords * 2)
    case k if k.startsWith("instr:") => instructionPair(seed, k.stripPrefix("instr:").toDouble)
    case other         => sys.error(s"unknown doc kind '$other'")
  }
}
