package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import repro.{SparkSpec, TestData}
import repro.corpus.TextGen

/** Property tests over row-level OP semantics (raw ScalaCheck; the
  * scalatest/scalacheck bridge artifact is not available offline).
  */
class PropertySpec extends SparkSpec with TestData {

  private val textGen: Gen[String] = Gen.listOf(Gen.oneOf(
    Gen.alphaNumStr.map(_.take(8)), Gen.const(" "), Gen.const("\n"),
    Gen.oneOf("the", "and", "of", "中", "!", ".", "damn"),
  )).map(_.mkString(" ")).map(_.take(2000))

  private def check(name: String, p: Prop, tests: Int = 60): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), p)
    assert(res.passed, s"$name: ${res.status}")
  }

  test("whitespace normalization is idempotent") {
    val m = Mappers.WhitespaceNormalizationMapper()
    check("ws-idem", Prop.forAll(textGen)(t => m.mapText(m.mapText(t)) == m.mapText(t)))
  }

  test("lowercase is idempotent") {
    val m = Mappers.LowercaseMapper()
    check("lc-idem", Prop.forAll(textGen)(t => m.mapText(m.mapText(t)) == m.mapText(t)))
  }

  test("remove-links never leaves an http token behind") {
    val m = Mappers.RemoveLinksMapper()
    check("links", Prop.forAll(textGen)(t => !m.mapText(t + " http://x.y/z end").contains("http://")))
  }

  test("tokenizer tokens are nonempty, lowercase, alnum-or-CJK") {
    check("tok", Prop.forAll(textGen) { t =>
      Tokenizers.words(t).forall(w =>
        w.nonEmpty && w == w.toLowerCase &&
          w.forall(c => Character.isLetterOrDigit(c) || Tokenizers.isCjk(c)))
    })
  }

  test("filter stats are total and NaN-free on arbitrary text") {
    check("stats-total", Prop.forAll(textGen) { t =>
      Filters.allStats.forall { f =>
        val stats = f.computeStatsRow(new TextContext(t))
        f.statsKeys.toSet.subsetOf(stats.keySet) && stats.values.forall(v => !v.isNaN)
      }
    })
  }

  test("every registry Filter writes exactly its stats keys on generated text") {
    val filters = OpRegistry.specs.keys.toSeq.sorted.map(OpRegistry.build(_, Map.empty)).collect { case f: Filter => f }
    val kinds = Seq("clean", "boilerplate", "gibberish", "flagged", "html", "repeat", "short", "code", "codeNoise", "cjk", "cjkNoise")
    val docs = for {
      kind <- Gen.oneOf(kinds)
      seed <- Gen.choose(0L, 1L << 40)
      words <- Gen.choose(0, 120)
    } yield TextGen.genDoc(kind, seed, words, TextGen.rng(seed))
    check("stats-keys", Prop.forAll(docs) { t =>
      filters.forall(f => f.computeStatsRow(new TextContext(t)).keySet == f.statsKeys.toSet)
    })
  }

  test("tightening a threshold only removes samples (monotonicity)") {
    val loose = Filters.TextLengthFilter(minLen = 1)
    val tight = Filters.TextLengthFilter(minLen = 100)
    check("monotone", Prop.forAll(textGen) { t =>
      val s = loose.computeStatsRow(new TextContext(t))
      !tight.keepRow(s) || loose.keepRow(s)
    })
  }

  test("the row engine equals a naive per-OP interpreter") {
    // The naive side builds a fresh context per Filter and always computes
    // its stats, so a shared context gone stale or stats reused from a Filter
    // with other parameters both show as a difference.
    def naive(ops: Seq[RowOp], text: String, meta: Map[String, String]): Option[(String, Map[String, Double])] =
      ops.foldLeft(Option((text, Map.empty[String, Double]))) {
        case (None, _) => None
        case (Some((t, s)), m: Mapper) => val e = m.mapText(t); Some(if (e != t) (e, Map.empty) else (t, s))
        case (Some((t, s)), f: Filter) => Some((t, s ++ f.computeStatsRow(new TextContext(t)))).filter(r => f.keepRow(r._2))
        case (Some(r), f: MetaFilter) => Some(r).filter(_ => f.keepMeta(meta))
      }
    import Filters._
    val pool: Seq[RowOp] = OpRegistry.specs.keys.toSeq.sorted.map(OpRegistry.build(_, Map.empty))
      .collect { case r: RowOp => r }
    // Filters whose parameters change the value they write under one key.
    val sameKey: Seq[Gen[Filter]] = Seq(
      Gen.zip(Gen.choose(1, 12), Gen.choose(0.0, 1.0)).map { case (n, max) => WordRepetitionFilter(n, max) },
      Gen.zip(Gen.choose(1, 12), Gen.choose(0.0, 1.0)).map { case (n, max) => CharRepetitionFilter(n, max) },
      Gen.zip(Gen.choose(0, 20), Gen.oneOf("standard", "cjk", "code")).map { case (min, tok) => TokenCountFilter(min, tokenizer = tok) },
      Gen.zip(Gen.oneOf("en", "zh"), Gen.choose(0.0, 1.0)).map { case (lang, min) => LanguageScoreFilter(lang, min) },
    )
    val op = Gen.frequency(3 -> Gen.oneOf(pool), 1 -> Gen.oneOf(sameKey).flatMap(identity))
    val pair = Gen.oneOf(sameKey).flatMap(Gen.listOfN(2, _))
    val chains = for {
      base <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, op))
      both <- Gen.frequency(4 -> pair, 1 -> Gen.const(Nil))
      i <- Gen.choose(0, base.size)
      j <- Gen.choose(i, base.size)
    } yield if (both.isEmpty) base else (base.take(i) :+ both(0)) ++ (base.slice(i, j) :+ both(1)) ++ base.drop(j)
    val metas = for {
      lang  <- Gen.oneOf("EN", "ZH")
      sfx   <- Gen.oneOf(".py", ".txt")
      stars <- Gen.oneOf("1", "50", "x")
    } yield Map("language" -> lang, "suffix" -> sfx, "stars" -> stars)
    check("naive-diff", Prop.forAll(chains, textGen, metas) { (ops, t, meta) =>
      RowStage(ops, t, meta, Map.empty) == naive(ops, t, meta)
    }, tests = 1000)
  }

  test("reordering Filters and MetaFilters leaves every row's result unchanged") {
    val pool: Seq[RowOp] = OpRegistry.specs.keys.toSeq.sorted.map(OpRegistry.build(_, Map.empty))
      .collect { case r: RowOp => r }
    assert(pool.exists(_.isInstanceOf[MetaFilter]))
    val chains = Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.oneOf(pool)))
    val metas = for {
      lang  <- Gen.oneOf("EN", "ZH")
      sfx   <- Gen.oneOf(".py", ".txt")
      stars <- Gen.oneOf("1", "50", "x")
    } yield Map("language" -> lang, "suffix" -> sfx, "stars" -> stars)
    def rowOps(ops: Seq[Op]) = ops.collect { case r: RowOp => r }
    check("reorder-diff", Prop.forAll(chains, textGen, metas) { (ops, t, meta) =>
      RowStage(rowOps(OpFusion.plan(ops, reorder = true)), t, meta, Map.empty) ==
        RowStage(rowOps(OpFusion.plan(ops, reorder = false)), t, meta, Map.empty)
    }, tests = 1000)
  }

  test("a tracer records what applying each planned OP alone removes or edits") {
    val pool: Seq[Op] = OpRegistry.specs.keys.toSeq.sorted.map(OpRegistry.build(_, Map.empty))
      .collect { case r: RowOp => r } :+ Deduplicators.ExactDocDeduplicator()
    val chains = Gen.choose(1, 6).flatMap(Gen.listOfN(_, Gen.oneOf(pool)))
    val docs = Gen.choose(0, 12).flatMap(Gen.listOfN(_, for {
      text <- Gen.frequency(4 -> textGen, 1 -> Gen.oneOf("Repeated  text", "repeated text"))
      lang <- Gen.oneOf("EN", "ZH")
    } yield (text, Map("language" -> lang, "suffix" -> ".txt", "stars" -> "50"))))
    // Each case runs Spark jobs, so failures are reported unshrunk.
    check("trace-diff", Prop.forAllNoShrink(chains, docs, Gen.oneOf(false, true)) { (ops, rows, fuse) =>
      val df = docsWithMeta(rows: _*)
      val tracer = new Tracer(maxSamples = 2)
      val pipe = Pipeline(ops, fuse = fuse, reorder = fuse, tracer = Some(tracer))
      pipe.run(df).collect()
      val (got, want) = (TraceReference.of(tracer), TraceReference(pipe, df, maxSamples = 2))
      (got == want) :| s"planned ${pipe.planned.map(_.name)}: traced $got, reference $want"
    }, tests = 30)
  }

  test("content hash is whitespace/case invariant") {
    check("chash", Prop.forAll(textGen) { t =>
      Hashing.contentHash(t) == Hashing.contentHash(t.toUpperCase.replaceAll("\\s+", "  "))
    })
  }

  test("simhash is permutation-invariant over token multisets") {
    val toks = Gen.listOfN(20, Gen.alphaLowerStr.map(_.take(6)))
    check("simhash-perm", Prop.forAll(toks, Gen.long) { (tokens, seed) =>
      val shuffled = new scala.util.Random(seed).shuffle(tokens)
      Hashing.simhash(tokens.toArray) == Hashing.simhash(shuffled.toArray)
    })
  }

  test("minhash signature length and determinism") {
    val toks = Gen.listOfN(15, Gen.alphaLowerStr.map(_.take(6)))
    check("minhash-det", Prop.forAll(toks) { tokens =>
      val s1 = Hashing.minhash(tokens.toArray, 64, 3, 7)
      val s2 = Hashing.minhash(tokens.toArray, 64, 3, 7)
      s1.length == 64 && s1.toSeq == s2.toSeq
    })
  }

  test("dist row pipeline composes like manual application") {
    val ops: Seq[RowOp] = Seq(Mappers.LowercaseMapper(), Filters.TextLengthFilter(minLen = 5))
    check("dist-row", Prop.forAll(textGen) { t =>
      val viaRow = RowStage(ops, t, Map.empty, Map.empty).map(_._1)
      val lowered = t.toLowerCase
      viaRow == (if (lowered.length >= 5) Some(lowered) else None)
    })
  }
}
