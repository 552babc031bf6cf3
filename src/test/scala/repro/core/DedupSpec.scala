package repro.core

import repro.{SparkSpec, TestData}
import org.apache.spark.sql.functions._
import repro.core.Deduplicators._

class DedupSpec extends SparkSpec with TestData {

  test("contentHash normalizes whitespace and case") {
    assert(Hashing.contentHash("Hello  World") == Hashing.contentHash("hello world"))
    assert(Hashing.contentHash("a") != Hashing.contentHash("b"))
    assert(Hashing.contentHash(null) == Hashing.contentHash(""))
  }

  test("minhash signatures of identical token sets match") {
    val a = Hashing.minhash(Array("a", "b", "c", "d", "e"), 32, 3, 1)
    val b = Hashing.minhash(Array("a", "b", "c", "d", "e"), 32, 3, 1)
    assert(a.toSeq == b.toSeq)
  }

  test("minhash similarity tracks jaccard") {
    val base = (1 to 50).map(i => s"w$i").toArray
    val near = (base.dropRight(3) :+ "x1") :+ "x2"
    val far  = (100 to 150).map(i => s"w$i").toArray
    def sim(x: Array[String], y: Array[String]) = {
      val sx = Hashing.minhash(x, 128, 3, 1); val sy = Hashing.minhash(y, 128, 3, 1)
      sx.zip(sy).count { case (p, q) => p == q }.toDouble / 128
    }
    assert(sim(base, near) > 0.6)
    assert(sim(base, far) < 0.2)
  }

  test("simhash of near-identical texts is close in hamming distance") {
    val t1 = (1 to 200).map(i => s"feat$i").toArray
    val t2 = (1 to 199).map(i => s"feat$i").toArray :+ "changed"
    val far = (1 to 200).map(i => s"other$i").toArray
    assert(Hashing.hamming(Hashing.simhash(t1), Hashing.simhash(t2)) <= 8)
    assert(Hashing.hamming(Hashing.simhash(t1), Hashing.simhash(far)) > 12)
  }

  test("connected components merges transitive clusters") {
    val comp = ConnectedComponents.run(Seq((1L, 2L), (2L, 3L), (10L, 11L)))
    assert(comp(1L) == 1L && comp(2L) == 1L && comp(3L) == 1L)
    assert(comp(10L) == 10L && comp(11L) == 10L)
  }

  test("connected components handles a long chain") {
    val comp = ConnectedComponents.run((0L until 12L).map(i => (i, i + 1)))
    assert(comp.values.toSet == Set(0L))
  }

  test("connected components resolves 40- and 10,000-edge chains") {
    for (k <- Seq(40L, 10000L)) {
      val comp = ConnectedComponents.run((0L until k).map(i => (i, i + 1)))
      assert(comp.size == k + 1 && comp.values.toSet == Set(0L), s"$k-edge chain")
    }
    // Edges from the far end first build a path k deep before any `find` halves it.
    val reversed = ConnectedComponents.run((10000L until 0L by -1L).map(i => (i, i - 1)))
    assert(reversed.size == 10001 && reversed.values.toSet == Set(0L))
  }

  test("connected components equals a local union-find on random edge lists") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Up to 400 vertices, small ids and arbitrary longs: random edges, long
    // chains through shuffled vertices and large stars, plus self-loops,
    // repeated and flipped edges.
    val edgeLists = for {
      n      <- Gen.choose(1, 400)
      pool   <- Gen.listOfN(n, Gen.oneOf(Gen.choose(-20L, 400L), Gen.long))
      vertex  = Gen.oneOf(pool)
      random <- Gen.listOf(Gen.zip(vertex, vertex))
      chains <- Gen.listOfN(2, Gen.zip(Gen.choose(0, n), Gen.long))
      stars  <- Gen.listOfN(2, Gen.zip(vertex, Gen.someOf(pool)))
      loops  <- Gen.someOf(pool)
      paths   = chains.map { case (m, seed) => new scala.util.Random(seed).shuffle(pool).take(m) }
      base    = random ++ paths.flatMap(p => p.zip(p.drop(1))) ++ stars.flatMap { case (c, ls) => ls.map(c -> _) }
      again  <- Gen.someOf(base)
      flip   <- Gen.someOf(base)
    } yield base ++ loops.map(v => (v, v)) ++ again ++ flip.map(_.swap)
    def unionFind(edges: Seq[(Long, Long)]): Map[Long, Long] = {
      val parent = scala.collection.mutable.Map.empty[Long, Long]
      def find(v: Long): Long = { val p = parent.getOrElseUpdate(v, v); if (p == v) v else find(p) }
      for ((a, b) <- edges if a != b) {
        val (ra, rb) = (find(a), find(b))
        parent(math.max(ra, rb)) = math.min(ra, rb)
      }
      parent.keys.map(v => v -> find(v)).toMap
    }
    assert(ConnectedComponents.run(Nil).isEmpty)
    assert(ConnectedComponents.run(Seq((4L, 4L), (6L, 6L))).isEmpty)
    val prop = Prop.forAll(edgeLists)(edges => ConnectedComponents.run(edges) == unionFind(edges))
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }

  test("exact doc dedup keeps first occurrence") {
    val df = docsDf("same doc", "same  DOC", "different entirely")
    val out = ExactDocDeduplicator()(df)
    assert(ids(out) == Seq(0L, 2L))
    assert(out.columns.toSeq == df.columns.toSeq)
  }

  test("exact doc dedup is idempotent") {
    val df = docsDf("a a a", "a a a", "b", "b", "c")
    val once = ExactDocDeduplicator()(df)
    val twice = ExactDocDeduplicator()(once)
    assert(ids(once) == ids(twice))
    assert(once.count() == 3)
  }

  test("paragraph dedup removes cross-document boilerplate paragraphs") {
    val boiler = "subscribe to our newsletter now"
    val df = docsDf(
      s"unique first content\n\n$boiler",
      s"$boiler\n\nsecond doc real text",
      boiler, // only boilerplate — should vanish entirely
    )
    val out = ParagraphDeduplicator()(df)
    val t = texts(out)
    assert(t.size == 2)
    assert(t.head.contains(boiler)) // first occurrence survives
    assert(!t(1).contains(boiler))
    assert(t(1).contains("second doc real text"))
  }

  test("paragraph dedup clears the stats of a sample whose text it edits, and only those") {
    val boiler = "subscribe to our newsletter now"
    val first = s"first doc\n\n$boiler"
    val df = docsDf(first, s"$boiler\n\nsecond doc")
      .withColumn(Schema.Stats, map(lit("text_len"), length(col(Schema.Text)).cast("double")))
    val out = rowsOf(ParagraphDeduplicator()(df))
    assert(out.map(r => r._2 -> r._3) == Seq(first -> Map("text_len" -> first.length.toDouble), "second doc" -> Map.empty))
  }

  test("minhash dedup removes near duplicates, keeps distinct docs") {
    val base = (1 to 60).map(i => s"word$i").mkString(" ")
    val near = (1 to 58).map(i => s"word$i").mkString(" ") + " tail changed"
    val other = (200 to 260).map(i => s"tok$i").mkString(" ")
    val df = docsDf(base, near, other)
    val out = MinHashDeduplicator(jaccard = 0.5)(df)
    assert(ids(out) == Seq(0L, 2L))
  }

  test("minhash dedup leaves dissimilar corpus untouched") {
    val docs = (0 until 8).map(d => (d * 100 until d * 100 + 50).map(i => s"w$i").mkString(" "))
    val out = MinHashDeduplicator()(docsDf(docs: _*))
    assert(out.count() == 8)
  }

  test("simhash dedup clusters by hamming distance") {
    val base = (1 to 200).map(i => s"feat$i").mkString(" ")
    val near = (1 to 199).map(i => s"feat$i").mkString(" ") + " changed"
    val far  = (1 to 200).map(i => s"other$i").mkString(" ")
    val out = SimHashDeduplicator(hammingMax = 8)(docsDf(base, near, far))
    assert(ids(out) == Seq(0L, 2L))
  }

  /** `text` with its `i`-th space-separated word replaced. */
  private def oneWordVariant(text: String, i: Int): String = {
    val words = text.split(" ")
    words.updated(i % words.length, s"variant$i").mkString(" ")
  }

  test("near-dup dedup keeps one doc of 1,210 near-copies, in buckets of over 1,000 ids") {
    val base = repro.corpus.TextGen.cleanText(11, 200)
    val df = docsDf(Seq.fill(1200)(base) ++ (0 until 10).map(i => oneWordVariant(base, 17 * i + 5)): _*)
    assert(ids(ExactDocDeduplicator()(df)).size == 11)
    assert(ids(MinHashDeduplicator()(df)) == Seq(0L))
    assert(ids(SimHashDeduplicator()(df)) == Seq(0L))
  }

  test("near-dup dedup keeps the same ids as a local LSH reference") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    import scala.util.hashing.MurmurHash3
    // Each doc is a fresh TextGen doc, an exact copy or a one-word variant of
    // an earlier doc; variants of variants make chains.
    val corpora = Gen.choose(0, 40).flatMap { n =>
      Gen.listOfN(n, Gen.zip(Gen.choose(0, 2), Gen.choose(0, 1000))).map {
        _.foldLeft(Vector.empty[String]) { case (docs, (kind, r)) =>
          if (docs.isEmpty || kind == 0) docs :+ repro.corpus.TextGen.cleanText(r, 40)
          else if (kind == 1) docs :+ docs(r % docs.size)
          else docs :+ oneWordVariant(docs(r % docs.size), r)
        }
      }
    }
    // Star edges from each bucket's minimum id, verified, then union-find
    // cluster heads: the ids the Deduplicator must keep.
    def reference[S](docs: Seq[String], sig: String => S, keys: S => Seq[Any], similar: (S, S) => Boolean): Seq[Long] = {
      val sigs = docs.map(sig).toIndexedSeq
      val parent = scala.collection.mutable.Map.empty[Int, Int]
      def find(v: Int): Int = { val p = parent.getOrElseUpdate(v, v); if (p == v) v else find(p) }
      val buckets = sigs.indices.flatMap(i => keys(sigs(i)).zipWithIndex.map(k => k -> i)).groupMap(_._1)(_._2)
      for (members <- buckets.values; head = members.min; m <- members if m != head && similar(sigs(head), sigs(m))) {
        val (ra, rb) = (find(head), find(m))
        parent(math.max(ra, rb)) = math.min(ra, rb)
      }
      sigs.indices.filter(i => find(i) == i).map(_.toLong)
    }
    val minhash = MinHashDeduplicator()
    val rows = minhash.numPerm / minhash.bands
    def minhashRef(docs: Seq[String]) = reference[Array[Long]](docs,
      t => Hashing.minhash(Tokenizers.words(t), minhash.numPerm, minhash.shingle, minhash.seed),
      sig => (0 until minhash.bands).map(b => MurmurHash3.arrayHash(sig.slice(b * rows, (b + 1) * rows), minhash.seed)),
      (a, b) => a.zip(b).count { case (x, y) => x == y }.toDouble / a.length >= minhash.jaccard)
    val simhash = SimHashDeduplicator()
    def simhashRef(docs: Seq[String]) = reference[Long](docs,
      t => Hashing.simhash(Tokenizers.words(t)),
      sig => (0 until 4).map(b => (sig >>> (b * 16)) & 0xffffL),
      (a, b) => Hashing.hamming(a, b) <= simhash.hammingMax)
    // Sliding-window revisions of one text: all 79 consecutive pairs pass
    // MinHash verification and 54 of the 78 pairs two apart do not, so the
    // verified edges hold a path of 64 hops from its component's minimum.
    val words = repro.corpus.TextGen.cleanText(10, 200 + 79 * 22).split(" ")
    val revisions = (0 until 80).map(i => words.slice(i * 22, i * 22 + 200).mkString(" "))
    val kept = minhashRef(revisions)
    info(s"the reference keeps ${kept.size} of ${revisions.size} revisions")
    assert(ids(minhash(docsDf(revisions: _*))) == kept)
    val prop = Prop.forAllNoShrink(corpora) { docs =>
      val df = docsDf(docs: _*)
      ids(minhash(df)) == minhashRef(docs) && ids(simhash(df)) == simhashRef(docs)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(20), prop)
    assert(res.passed, res.status.toString)
  }

  test("exact dedup result equals DuckDB distinct-count oracle") {
    val df = docsDf("x y", "x y", "z", "w", "z")
    val out = ExactDocDeduplicator()(df).select(repro.core.Schema.Text).groupBy(Schema.Text)
      .count().withColumnRenamed("count", "n")
    repro.Oracle.assertEquivalent(
      out,
      "SELECT text, CAST(COUNT(DISTINCT text) AS VARCHAR) AS n FROM docs GROUP BY text",
      "docs" -> df.select(Schema.Text))
  }

  test("deduplicator names are snake_case and unique") {
    val names = Deduplicators.all.map(_.name)
    assert(names.distinct.size == names.size)
    assert(names.forall(_.matches("[a-z0-9_]+")))
  }
}
