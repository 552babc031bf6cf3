package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.util.hashing.MurmurHash3

/** Hashing helpers for fingerprint-based deduplication. */
object Hashing {
  /** 64-bit string hash from two seeded 32-bit murmur hashes. */
  def h64(s: String, seed: Int = 0): Long = {
    val a = MurmurHash3.stringHash(s, seed)
    val b = MurmurHash3.stringHash(s, seed ^ 0x5bd1e995)
    (a.toLong << 32) | (b.toLong & 0xffffffffL)
  }

  /** Normalized content hash used for exact deduplication: lowercased,
    * whitespace-collapsed — near-identical copies with trivial spacing
    * differences collapse to one fingerprint.
    */
  def contentHash(text: String): Long =
    h64(if (text == null) "" else collapseSpace(text.toLowerCase))

  /** `s` with each run of regex `\s` characters ([[Mappers.isRegexSpace]])
    * replaced by one space, then trimmed like `String.trim`: one scan, and no
    * copy if nothing changes.
    */
  private def collapseSpace(s: String): String = {
    var b = 0
    var e = s.length
    while (b < e && s.charAt(b) <= ' ') b += 1
    while (e > b && s.charAt(e - 1) <= ' ') e -= 1
    // A `\s` character other than a space, or a space before another one,
    // must be rewritten; a trimmed text ends in neither.
    def rewrite(i: Int): Boolean = {
      val c = s.charAt(i)
      Mappers.isRegexSpace(c) && (c != ' ' || Mappers.isRegexSpace(s.charAt(i + 1)))
    }
    var i = b
    while (i < e && !rewrite(i)) i += 1
    if (i == e) s.substring(b, e)
    else {
      val sb = new java.lang.StringBuilder(e - b).append(s, b, i)
      while (i < e) {
        val c = s.charAt(i)
        if (!Mappers.isRegexSpace(c)) { sb.append(c); i += 1 }
        else {
          sb.append(' ')
          while (i < e && Mappers.isRegexSpace(s.charAt(i))) i += 1
        }
      }
      sb.toString
    }
  }

  /** MinHash signature over word-shingle 64-bit hashes.
    * perm_i(h) = a_i*h + b_i (odd a_i, wraparound multiply is a fine 2^64 hash
    * family for LSH purposes); signature_i = min over shingles.
    */
  def minhash(tokens: Array[String], numPerm: Int, shingle: Int, seed: Int): Array[Long] = {
    val shingles: Array[Long] =
      if (tokens.length < shingle) Array(h64(tokens.mkString(" "), seed))
      else Array.tabulate(tokens.length - shingle + 1) { i =>
        h64(tokens.slice(i, i + shingle).mkString(" "), seed)
      }
    val rnd = new java.util.Random(seed)
    val out = new Array[Long](numPerm)
    var p = 0
    while (p < numPerm) {
      val a = rnd.nextLong() | 1L
      val b = rnd.nextLong()
      var m = Long.MaxValue
      var i = 0
      while (i < shingles.length) {
        val v = a * shingles(i) + b
        if (v < m) m = v
        i += 1
      }
      out(p) = m
      p += 1
    }
    out
  }

  /** 64-bit SimHash over word counts. */
  def simhash(tokens: Array[String]): Long = {
    val acc = new Array[Int](64)
    val counts = tokens.groupBy(identity).view.mapValues(_.length)
    counts.foreach { case (w, c) =>
      val h = h64(w)
      var b = 0
      while (b < 64) {
        if (((h >>> b) & 1L) == 1L) acc(b) += c else acc(b) -= c
        b += 1
      }
    }
    var sig = 0L
    var b = 0
    while (b < 64) { if (acc(b) > 0) sig |= (1L << b); b += 1 }
    sig
  }

  def hamming(a: Long, b: Long): Int = java.lang.Long.bitCount(a ^ b)
}

/** Connected components of an undirected edge list, by union-find on the
  * driver: [[OpUtil.lsh]] turns its verified pairs into clusters with it.
  * `find` halves the path it walks, and a union links the larger root under
  * the smaller, so each root is its component's minimum and nothing recurses,
  * however long a chain.
  */
object ConnectedComponents {
  /** @return each vertex of an edge that is not a self-loop, mapped to the
    *         minimum id of its component
    */
  def run(edges: Iterable[(Long, Long)]): Map[Long, Long] = {
    val parent = scala.collection.mutable.HashMap.empty[Long, Long]
    def find(v: Long): Long = {
      var x = v
      var p = parent.getOrElseUpdate(x, x)
      while (p != x) {
        val g = parent(p)
        parent(x) = g
        x = g
        p = parent(x)
      }
      x
    }
    for ((a, b) <- edges if a != b) {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    parent.keys.toList.map(v => v -> find(v)).toMap
  }
}

/** The Deduplicator pool: dataset-level duplication removal (paper Table 1,
  * "hash-based and vector-based deduplication methods").
  */
object Deduplicators {

  /** Exact document deduplication on a normalized content hash; keeps the
    * smallest-id member of each hash group (deterministic).
    */
  final case class ExactDocDeduplicator() extends Deduplicator {
    val name = "exact_doc_deduplicator"
    def computeHash(df: DataFrame): DataFrame = {
      val f = udf((t: String) => Hashing.contentHash(t))
      df.withColumn(HashCol, f(col(Schema.Text)))
    }
    def process(df: DataFrame): DataFrame = OpUtil.keepFirstBy(df, HashCol)
  }

  /** Dataset-level paragraph deduplication: a paragraph that occurs in many
    * documents is kept only at its first occurrence (smallest (id, offset));
    * documents are reassembled without their removed paragraphs, and samples
    * left empty are dropped. This is the cross-document boilerplate killer.
    * Like a Mapper's edit, a changed text clears the sample's stats.
    */
  final case class ParagraphDeduplicator() extends Deduplicator {
    val name = "paragraph_deduplicator"
    def computeHash(df: DataFrame): DataFrame = df
    def process(df: DataFrame): DataFrame = {
      val split = udf((t: String) => new TextContext(if (t == null) "" else t).paragraphs)
      val ph    = udf((p: String) => Hashing.contentHash(p))
      val exploded = df
        .select(col(Schema.Id), posexplode(split(col(Schema.Text))))
        .toDF(Schema.Id, "__idx", "__para")
        .withColumn("__ph", ph(col("__para")))
      val reassembled = OpUtil.keepFirstBy(exploded, "__ph", col("__idx"))
        .groupBy(Schema.Id)
        .agg(concat_ws("\n\n", array_sort(collect_list(struct(col("__idx"), col("__para"))))
          .getField("__para")) as "__text")
        .filter(length(col("__text")) > 0)
      df.join(reassembled, Schema.Id)
        .withColumn(Schema.Stats,
          when(col("__text") === col(Schema.Text), col(Schema.Stats)).otherwise(Schema.emptyStats))
        .drop(Schema.Text)
        .withColumnRenamed("__text", Schema.Text)
    }
  }

  /** Near-duplicate removal via MinHash-LSH over word shingles ([[OpUtil.lsh]]):
    * signatures → band buckets → star pairs to each bucket's minimum id →
    * signature-estimated Jaccard check → union-find over the verified edges on
    * the driver → keep each cluster's minimum id.
    *
    * Defaults (128 perms, 16 bands × 8 rows) put the S-curve threshold near
    * Jaccard ≈ 0.7, matching common LLM-corpus dedup settings.
    */
  final case class MinHashDeduplicator(
      numPerm: Int = 128,
      bands: Int = 16,
      shingle: Int = 3,
      jaccard: Double = 0.7,
      seed: Int = 42,
  ) extends Deduplicator {
    val name = "minhash_deduplicator"
    require(numPerm % bands == 0, "numPerm must be divisible by bands")
    private val rows = numPerm / bands

    def computeHash(df: DataFrame): DataFrame = {
      val f = udf((t: String) => Hashing.minhash(Tokenizers.words(t), numPerm, shingle, seed))
      df.withColumn(HashCol, f(col(Schema.Text)))
    }

    def process(df: DataFrame): DataFrame = {
      val bandKeys = udf((sig: Seq[Long]) => sig.grouped(rows).map(g => MurmurHash3.arrayHash(g.toArray, seed)).toSeq)
      val estJaccard = udf { (a: Seq[Long], b: Seq[Long]) =>
        a.iterator.zip(b.iterator).count { case (x, y) => x == y }.toDouble / a.size
      }
      OpUtil.lsh(df, HashCol, bandKeys(_), (a, b) => estJaccard(a, b) >= jaccard)
    }
  }

  /** Near-duplicate removal via 64-bit SimHash: each of the 4 16-bit blocks is
    * an LSH band ([[OpUtil.lsh]]), exact Hamming distance verifies the star
    * pairs, and a union-find over the verified edges on the driver clusters —
    * the "vector-based" method of Table 1.
    */
  final case class SimHashDeduplicator(hammingMax: Int = 3) extends Deduplicator {
    val name = "simhash_deduplicator"
    private val BlockBits = 16
    private val Blocks = 4

    def computeHash(df: DataFrame): DataFrame = {
      val f = udf((t: String) => Hashing.simhash(Tokenizers.words(t)))
      df.withColumn(HashCol, f(col(Schema.Text)))
    }

    def process(df: DataFrame): DataFrame = {
      val blockKeys = udf((sig: Long) => Seq.tabulate(Blocks)(b => (sig >>> (b * BlockBits)) & 0xffffL))
      val ham = udf((a: Long, b: Long) => Hashing.hamming(a, b))
      OpUtil.lsh(df, HashCol, blockKeys(_), (a, b) => ham(a, b) <= hammingMax)
    }
  }

  /** All built-in deduplicators with default parameters. */
  def all: Seq[Deduplicator] = Seq(
    ExactDocDeduplicator(), ParagraphDeduplicator(), MinHashDeduplicator(), SimHashDeduplicator(),
  )
}
