package djbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.stream.IntStream
import repro.corpus.TextGen

/** A generated corpus: `texts(i)` is written as `{"doc": i, "text": ...}`,
  * and `cluster(i)` is the planted duplicate cluster of doc `i` (-1 for a
  * doc planted alone). The cluster labels never leave the benchmark: the
  * recipe reads only `text` through `JsonlFormatter`.
  */
final case class Corpus(texts: Array[String], cluster: Array[Int]) {
  def size: Int = texts.length
  def bytes: Long = texts.iterator.map(_.getBytes(UTF_8).length.toLong).sum
}

/** Seeded corpus generators. Every doc is a pure function of (seed, index),
  * so the same seed always yields the same files.
  */
object Corpus {

  /** Shard count of the jsonl input; fixed so that the input layout (and so
    * the loaded ids) does not depend on the machine.
    */
  val Shards = 8

  /** Web mix of the pre-training workload. */
  val WebMix: TextGen.Mix = Seq(
    "clean" -> 0.35, "html" -> 0.20, "boilerplate" -> 0.20,
    "gibberish" -> 0.15, "flagged" -> 0.05, "repeat" -> 0.05)

  /** The Fig. 9 mix of the OP-fusion experiment. */
  val Fig9Mix: TextGen.Mix = Seq(
    "clean" -> 0.6, "html" -> 0.1, "gibberish" -> 0.1, "boilerplate" -> 0.1, "repeat" -> 0.1)

  private def parallel[T: scala.reflect.ClassTag](n: Int)(f: Int => T): Array[T] = {
    val out = new Array[T](n)
    IntStream.range(0, n).parallel().forEach(i => out(i) = f(i))
    out
  }

  /** `n` docs of a kind mixture, `words` words each. Each kind gets its
    * exact share of the docs, in a seeded order, so seeds differ in content
    * and order but not in composition.
    */
  def mixture(mix: TextGen.Mix, n: Int, words: Int, seed: Long): Corpus = {
    val total = mix.map(_._2).sum
    val counts = mix.map { case (_, w) => math.round(n * w / total).toInt }
    val kinds = Array.tabulate(mix.length)(k => Array.fill(counts(k))(mix(k)._1)).flatten
      .padTo(n, mix.head._1).take(n)
    shuffle(kinds, TextGen.rng(seed ^ 0x6d6978L))
    val texts = parallel(n) { i =>
      TextGen.genDoc(kinds(i), seed * 7919L + i, words, TextGen.rng(seed * 1000003L + i))
    }
    Corpus(texts, Array.fill(n)(-1))
  }

  /** Fisher-Yates with the given seeded generator. */
  private def shuffle[T](a: Array[T], r: java.util.Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = r.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }

  /** Unique clean docs plus planted near-duplicate clusters. Every member of
    * a cluster is its 200-word base doc with each word re-drawn from the
    * vocabulary with probability `redraw`. Cluster sizes are heavy-tailed:
    * one cluster above the 1000-member bucket cap of the MinHash
    * deduplicator, a few of about 100, and many quads and pairs. Docs are
    * placed in a seeded random order.
    */
  def nearDup(unique: Int, quads: Int, pairs: Int, seed: Long,
              words: Int = 200, redraw: Double = 0.02): Corpus = {
    val r = TextGen.rng(seed ^ 0x6e64L)
    val sizes = Seq(1100, 100, 100, 100) ++ Seq.fill(quads)(4) ++ Seq.fill(pairs)(2)
    // (cluster, member) per doc before shuffling; unique docs are cluster -1.
    val slots: Array[(Int, Int)] =
      (sizes.zipWithIndex.flatMap { case (s, c) => (0 until s).map(m => (c, m)) } ++
        (0 until unique).map(u => (-1, u))).toArray
    shuffle(slots, r)
    val texts = parallel(slots.length) { k =>
      val (c, m) = slots(k)
      if (c < 0) TextGen.cleanText(seed * 7919L + 2L * m + 1L, words)
      else {
        val base = TextGen.cleanText(seed * 7919L + 2L * c, words)
        if (m == 0) base
        else {
          val vr = TextGen.rng((seed * 31L + c) * 1000003L + m)
          base.split(" ", -1).map { w =>
            if (vr.nextDouble() < redraw) TextGen.vocab(vr.nextInt(TextGen.VocabSize)) else w
          }.mkString(" ")
        }
      }
    }
    Corpus(texts, slots.map(_._1))
  }

  /** Write the corpus as `Shards` jsonl files of consecutive docs into `dir`. */
  def write(corpus: Corpus, dir: Path): Unit = {
    Files.createDirectories(dir)
    val n = corpus.size
    parallel(Shards) { s =>
      val sb = new java.lang.StringBuilder
      (s * n / Shards until (s + 1) * n / Shards).foreach { i =>
        sb.append("{\"doc\":").append(i).append(",\"text\":")
        Json.quote(sb, corpus.texts(i))
        sb.append("}\n")
      }
      Files.write(dir.resolve(f"part-$s%02d.jsonl"), sb.toString.getBytes(UTF_8))
    }
  }
}
