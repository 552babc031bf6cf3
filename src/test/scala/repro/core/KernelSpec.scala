package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Filters._
import repro.core.Mappers._
import repro.corpus.TextGen
import repro.exp.Corpora

/** Differential check of the row kernels against [[KernelOracle]], the
  * frozen straightforward versions: equal strings, equal token arrays, equal
  * content hashes, and stats equal under `java.lang.Double.compare`.
  *
  * The benchmark's reference interpreter calls the same `mapText` and
  * `computeStatsRow` as the pipeline, so only an independent oracle can see
  * a kernel that changed meaning.
  */
class KernelSpec extends AnyFunSuite {

  /** Each checked kernel: its name, the production result and the oracle's,
    * both rendered as strings (stats as their raw bits).
    */
  private val kernels: Seq[(String, String => String, String => String)] = {
    def mapper(m: Mapper, oracle: String => String) = (m.toString, m.mapText _, oracle)
    def stat(f: StatFilter, oracle: String => Double) = (f.toString,
      (t: String) => java.lang.Double.doubleToRawLongBits(f.stat(new TextContext(t))).toString,
      (t: String) => java.lang.Double.doubleToRawLongBits(oracle(t)).toString)
    Seq(
      mapper(WhitespaceNormalizationMapper(), KernelOracle.whitespaceNormalization),
      mapper(FixUnicodeMapper(), KernelOracle.fixUnicode),
      mapper(RemoveEmailsMapper(), KernelOracle.removeEmails(_, "")),
      mapper(RemoveEmailsMapper("<$0|\\$>"), KernelOracle.removeEmails(_, "<$0|\\$>")),
      mapper(RemoveIpAddressesMapper(), KernelOracle.removeIpAddresses(_, "")),
      mapper(RemoveLinksMapper(), KernelOracle.removeLinks(_, "")),
      mapper(RemoveLinksMapper("[$0]"), KernelOracle.removeLinks(_, "[$0]")),
      mapper(RemoveHtmlTagsMapper(), KernelOracle.removeHtmlTags),
      mapper(RemoveLongWordsMapper(), KernelOracle.removeLongWords(_, 40)),
      mapper(RemoveLongWordsMapper(4), KernelOracle.removeLongWords(_, 4)),
      ("words", (t: String) => Tokenizers.words(t).mkString("\u0000"),
        (t: String) => KernelOracle.words(t).mkString("\u0000")),
      ("contentHash", (t: String) => Hashing.contentHash(t).toString,
        (t: String) => KernelOracle.contentHash(t).toString),
      stat(SpecialCharRatioFilter(), KernelOracle.specialCharRatio),
      stat(WordEntropyFilter(), t => KernelOracle.wordEntropy(KernelOracle.words(t)))) ++
      Seq(0, 1, 2, 3, 10).map(n => stat(CharRepetitionFilter(n), KernelOracle.charRepRatio(_, n))) ++
      Seq(0, 1, 2, 5, 10).map(n =>
        stat(WordRepetitionFilter(n), t => KernelOracle.wordRepRatio(KernelOracle.words(t), n)))
  }

  /** The kernels whose result on `t` differs from the oracle's. */
  private def mismatches(t: String): Seq[String] =
    kernels.collect { case (name, kernel, oracle) if kernel(t) != oracle(t) => name }

  private def assertAgree(corpus: String, texts: Seq[String]): Unit = {
    val bad = texts.iterator.map(t => t -> mismatches(t)).find(_._2.nonEmpty)
    assert(bad.isEmpty,
      bad.map { case (t, ks) => s"$corpus: ${ks.mkString(", ")} differ on ${escaped(t)}" }.getOrElse(""))
  }

  private def escaped(t: String): String =
    "\"" + t.take(300).flatMap(c => if (c < ' ' || c > '~') f"\\u${c.toInt}%04X" else c.toString) + "\""

  private val kinds = Seq("clean", "boilerplate", "gibberish", "flagged", "html", "repeat", "short",
    "code", "codeNoise", "cjk", "cjkNoise", "instr:0.5")

  /** `n` docs of a kind mixture, kinds drawn by weight as `TextGen.docs` does. */
  private def mixture(mix: TextGen.Mix, n: Int, words: Int, seed: Long): Seq[String] = {
    val cum = mix.scanLeft(0.0)(_ + _._2).tail.map(_ / mix.map(_._2).sum)
    (0 until n).map { i =>
      val r = TextGen.rng(seed * 1000003L + i)
      val u = r.nextDouble()
      val kind = mix(cum.indexWhere(u <= _) match { case -1 => mix.length - 1; case k => k })._1
      TextGen.genDoc(kind, seed * 7919L + i, words, r)
    }
  }

  /** The web-pretrain recipe's Mappers, then the 14-OP fusion recipe's. */
  private val webChain: Seq[Mapper] = Seq(FixUnicodeMapper(), RemoveHtmlTagsMapper(), RemoveLinksMapper(),
    RemoveEmailsMapper(), WhitespaceNormalizationMapper())
  private val fusionChain: Seq[Mapper] = Seq(FixUnicodeMapper(), RemoveHtmlTagsMapper(), RemoveLinksMapper(),
    RemoveLongWordsMapper(), WhitespaceNormalizationMapper())

  /** The texts before each Mapper of `chain`, and after the last one. */
  private def throughChain(chain: Seq[Mapper], texts: Seq[String]): Seq[String] =
    texts.flatMap(t => chain.scanLeft(t)((x, m) => m.mapText(x)))

  private val fig9Mix: TextGen.Mix = Seq(
    "clean" -> 0.6, "html" -> 0.1, "gibberish" -> 0.1, "boilerplate" -> 0.1, "repeat" -> 0.1)

  test("isCjk agrees with Character.UnicodeBlock on every char") {
    val bad = (0 to 0xFFFF).map(_.toChar).filter(c => Tokenizers.isCjk(c) != KernelOracle.isCjk(c))
    assert(bad.isEmpty, bad.take(5).map(c => f"U+${c.toInt}%04X"))
  }

  test("kernels agree with the oracle on every TextGen doc kind") {
    kinds.foreach { kind =>
      assertAgree(kind, (0 until 30).map(s => TextGen.genDoc(kind, 5000L + s, 250, TextGen.rng(s.toLong))))
    }
  }

  test("kernels agree on the web-pretrain and Fig. 9 mixes, raw and along their Mapper chains") {
    assertAgree("web-pretrain", throughChain(webChain, mixture(Corpora.webMix, 300, 250, 11L)))
    assertAgree("fig9", throughChain(fusionChain, mixture(fig9Mix, 300, 220, 12L)))
  }

  test("kernels agree on named edge cases") {
    val long = "x" * 41
    assertAgree("edge", Seq(
      "", " ", "\n", "\n\n\n", " \t \n \t ", "\u000B", "\u000Ba\u000B", "a\u000Bb", "a \u000B\f\rb",
      "\u0001 a \u0001", "a \u0001 b",
      "a\u00A0\u00A0b", "\u3000\u3000", "\uFEFFa", "a\r\nb\r\n\r\n\r\nc", "line \n\n\n\n  next \n",
      "\u00E2\u20AC\u2122", "\u00E2\u20AC\u0153q\u00E2\u20AC\u009D", "\u00E2\u20AC", "\u00E2\u0001\u20AC\u2122",
      "\u00E2\uFFFD\u20AC\u0153", "a\u007Fb\u0085c", "e\u0301", "x@y.zz", "@", "a@b", "mail a.b@c.de!",
      "WWW.X.Y", "wWw.q", "ww.q", "http://", "HTTPS://A", "x://y", "ftp://f w", "<", "&", "&amp;lt;",
      "&#12;&#;&#x1;", "<script>x</script>y", "<style a>\n</style>", "<b", "a<b>c</b>d", "&nbsp;&quot;",
      "192.168.0.1", "1.2.3.4.5", "256.1.1.1", long, s"a $long b", s"a\t$long b", s"a\n$long\n",
      s"a\n$long b", s"  $long  ",
      s"\u2000$long", "a  b   c", "İstanbul", "ǅ", "ΣΑΣ", "中文abc。", "\uD83D\uDE00 emoji",
      "the the the the the the the", "a b a b a b a b",
    ))
  }

  // Single characters, several of them invisible, and the fragments the
  // regexes look for, so that random strings also hit the slow paths.
  private val hostile: Gen[String] = Gen.oneOf(
    "\t", "\n", "\u000B", "\f", "\r", " ", " ", "\u00A0", "\u2000", "\u2005", "\u200A", "\u200B", "\u3000",
    "\uFEFF", "\u0001", "\u007F", "\u0085", "\u009D", "\uFFFD", "<", ">", "&", "@", ":", "/", ".", "W", "w",
    "a", "b", "Z", "7", "0", "中", "文", "。", "\u00E2", "\u20AC", "\u2122", "\u0153", "\u00E2\u20AC",
    "\u00E2\u20AC\u2122", "\u00E2\u20AC\u0153", "\u00E2\u20AC\u009D", "www.", "http://", "://", "&amp;", "&lt;",
    "&#39;", "<b>", "<script>", "</script>", "a@b.io", "10.0.0.1", "e\u0301", "x" * 41, "the", "damn",
  )

  test("kernels agree on 1,500 random strings over a hostile alphabet") {
    val text = Gen.choose(0, 80).flatMap(n => Gen.listOfN(n, hostile)).map(_.mkString)
    val prop = Prop.forAll(text) { t =>
      val bad = mismatches(t)
      bad.isEmpty :| s"${bad.mkString(", ")} differ on ${escaped(t)}"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1500), prop)
    assert(res.passed, res.status.toString)
  }

  test("words still counts one call per invocation") {
    val before = Tokenizers.wordCalls.get()
    Tokenizers.words("")
    Tokenizers.words("Some Words 中文")
    new TextContext("a b").words
    assert(Tokenizers.wordCalls.get() == before + 3)
  }
}
