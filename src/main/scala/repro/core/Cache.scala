package repro.core

import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import scala.util.Try

/** Cache / checkpoint management (paper Sec. 5.1.1 & 7, Appendix A.2).
  *
  * Every OP's output can be persisted as a parquet "cache" keyed by the hash
  * chain of the input key and all OP signatures so far — so a rerun with an
  * unchanged recipe prefix resumes from the last cached OP instead of
  * recomputing (the paper's feedback-iteration accelerator), and any
  * parameter change invalidates exactly the suffix from the edited OP on.
  * The OP-signature hash is our analog of the paper's "dedicated and simple
  * hashing method bypassing serialization of non-serializable objects": keys
  * derive from declarative OP parameters, never from object graphs.
  *
  * Modes:
  *  - `cache`      — keep every OP's output (max storage, min recompute);
  *                   all outputs of a run of row-level OPs are written by
  *                   one job ([[CacheManager.saveRun]]);
  *  - `checkpoint` — keep only the latest OP's output, deleting the
  *                   predecessor after a successful write (paper: ≤ 3×S peak).
  *
  * Compression: parquet codec (`zstd` by default, `lz4`/`snappy`/
  * `uncompressed` accepted) — the paper's cache-compression feature.
  */
final class CacheManager(
    val spark: SparkSession,
    val dir: String,
    val mode: String = CacheManager.ModeCache,
    val compression: String = "zstd",
) {
  require(Seq(CacheManager.ModeCache, CacheManager.ModeCheckpoint).contains(mode), s"bad mode $mode")
  Files.createDirectories(Paths.get(dir))

  private def sha(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8"))
      .map("%02x".format(_)).mkString.take(16)

  /** Next key in the hash chain: prevKey ∘ OP signature. */
  def chainKey(prevKey: String, op: Op): String = sha(s"$prevKey|${op.signature}")

  /** Initial key for a named input dataset. */
  def inputKey(inputId: String): String = sha(s"input|$inputId")

  def path(key: String): Path = Paths.get(dir, key)

  def has(key: String): Boolean = Files.exists(path(key).resolve("_SUCCESS"))

  def load(key: String): DataFrame = spark.read.parquet(path(key).toString)

  /** Persist an OP output under `key`; in checkpoint mode the predecessor's
    * files are deleted only after this write succeeds (so the peak transient
    * usage is two OP outputs + the original = 3×S, Appendix A.2).
    */
  def save(df: DataFrame, key: String, prevKey: Option[String]): DataFrame = {
    df.write.mode("overwrite").option("compression", compression).parquet(path(key).toString)
    if (mode == CacheManager.ModeCheckpoint) prevKey.foreach(delete)
    load(key)
  }

  /** Persist every OP output of a row run in one write job (cache mode).
    * `staged` is a [[RowStage.staged]] frame; its rows of stage `k` are the
    * entry under `keys(k)`. Each entry is moved into place before its
    * `_SUCCESS` marker is written, so an interrupted save leaves no entry
    * that [[has]] accepts. A stage no row reached gets an empty entry.
    * Returns the last entry.
    */
  def saveRun(staged: DataFrame, keys: Seq[String]): DataFrame = {
    require(mode == CacheManager.ModeCache, "a row run is saved whole only in cache mode")
    val staging = Paths.get(dir, s"_staging-${java.util.UUID.randomUUID()}")
    try {
      staged.write.option("compression", compression).partitionBy(RowStage.StageCol).parquet(staging.toString)
      val schema = staged.drop(RowStage.StageCol).schema
      keys.zipWithIndex.foreach { case (key, k) =>
        delete(key)
        val part = staging.resolve(s"${RowStage.StageCol}=$k")
        if (Files.exists(part)) {
          Files.move(part, path(key))
          Files.createFile(path(key).resolve("_SUCCESS"))
        } else spark.createDataFrame(java.util.Collections.emptyList[Row](), schema)
          .write.option("compression", compression).parquet(path(key).toString)
      }
    } finally delete(staging)
    load(keys.last)
  }

  def delete(key: String): Unit = delete(path(key))

  private def delete(p: Path): Unit = {
    if (Files.exists(p)) {
      Files.walk(p).sorted(java.util.Comparator.reverseOrder[Path]())
        .forEach(f => Try(Files.delete(f)))
    }
  }

  /** Number of cache entries currently on disk. */
  def entries: Seq[String] =
    if (!Files.exists(Paths.get(dir))) Nil
    else Files.list(Paths.get(dir)).toArray.map(_.toString)
      .map(p => Paths.get(p).getFileName.toString).toSeq.sorted

  /** Total bytes on disk under the cache directory. */
  def bytes: Long =
    if (!Files.exists(Paths.get(dir))) 0L
    else Files.walk(Paths.get(dir)).toArray.map(p => Try(Files.size(p.asInstanceOf[Path])).getOrElse(0L)).sum
}

object CacheManager {
  val ModeCache      = "cache"
  val ModeCheckpoint = "checkpoint"
}

/** Closed-form space-usage model from Appendix A.2, used to decide how many
  * caches fit the available disk before processing starts.
  */
object SpaceModel {
  /** Cache-mode space: (1 + M + F + 1(F>0) + D) × S — one cache for the
    * loaded dataset, one per OP, plus one extra for the first Filter (it adds
    * the stats column).
    */
  def cacheMode(mappers: Int, filters: Int, dedups: Int, datasetBytes: Long): Long =
    (1L + mappers + filters + (if (filters > 0) 1 else 0) + dedups) * datasetBytes

  /** Checkpoint-mode peak: 3 × S (original + previous + in-flight). */
  def checkpointMode(datasetBytes: Long): Long = 3L * datasetBytes

  /** Same accounting driven by an OP list. */
  def cacheMode(ops: Seq[Op], datasetBytes: Long): Long = {
    val m = ops.count(_.isInstanceOf[Mapper])
    val f = ops.count(o => o.isInstanceOf[Filter] || o.isInstanceOf[MetaFilter])
    val d = ops.count(_.isInstanceOf[Deduplicator])
    cacheMode(m, f, d, datasetBytes)
  }

  /** Decide whether per-OP caching fits in `availableBytes`, falling back to
    * checkpoint mode and then to no persistence (paper: the system "actively
    * monitors disk space … automatically determines if, and when, checkpoints
    * and cache should be deployed").
    */
  def choosePolicy(ops: Seq[Op], datasetBytes: Long, availableBytes: Long): String =
    if (cacheMode(ops, datasetBytes) <= availableBytes) CacheManager.ModeCache
    else if (checkpointMode(datasetBytes) <= availableBytes) CacheManager.ModeCheckpoint
    else "none"
}
