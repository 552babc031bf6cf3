package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.io.LocalInputFile
import org.apache.spark.sql.types.{DataType, StructType}
import scala.jdk.CollectionConverters._
import scala.util.{Try, Using}

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
  *                   one job, each version of a row once
  *                   ([[CacheManager.saveRun]]);
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

  /** Where row runs write their data ([[saveRun]]); not an entry. Spark
    * would warn on reading a path whose own name starts with `_`, so only
    * this parent directory has one.
    */
  private def runs: Path = Paths.get(dir, "_runs")

  /** The parquet data directory `data`, which one Spark write made, read
    * with the schema stored in its footers. The schema comes from one part
    * file's footer (each holds the same), read on the driver, so no Spark
    * job infers it.
    */
  private def read(data: Path): DataFrame = {
    val part = Using.resource(Files.list(data))(_.iterator.asScala.map(_.getFileName.toString)
      .filter(f => f.startsWith("part-") && f.endsWith(".parquet")).min)
    val footer = Using.resource(ParquetFileReader.open(new LocalInputFile(data.resolve(part))))(_.getFileMetaData)
    val schema = DataType.fromJson(footer.getKeyValueMetaData.get(CacheManager.RowMetadataKey)).asInstanceOf[StructType]
    spark.read.schema(schema).parquet(data.toString)
  }

  def has(key: String): Boolean = Files.exists(path(key).resolve("_SUCCESS"))

  /** The entry under `key`, read with its stored schema ([[read]]).
    * An entry that a row run wrote is a reference to the run's versions
    * ([[saveRun]]): the versions valid at its stage, with only the stats
    * keys added by then.
    */
  def load(key: String): DataFrame = {
    val ref = path(key).resolve(CacheManager.RefFile)
    if (!Files.exists(ref)) read(path(key))
    else {
      val Array(data, stage) = new String(Files.readAllBytes(ref), UTF_8).split("\t")
      RowStage.at(read(runs.resolve(data)), stage.toInt)
    }
  }

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
    * `staged` is a [[RowStage.staged]] frame; `keys(k)` names its stage `k`,
    * so `keys.head` is the run's input. Each version of a row is written
    * once, as one parquet dataset under `_runs` in [[dir]]; each key then
    * gets a directory holding only a reference (data directory and stage)
    * and `_SUCCESS`. An input key already on disk is left as it is. If the
    * write fails, the data directory and every key of this call are
    * deleted, so no entry that [[has]] accepts points at missing data.
    * Returns the last entry.
    */
  def saveRun(staged: DataFrame, keys: Seq[String]): DataFrame = {
    require(mode == CacheManager.ModeCache, "a row run is saved whole only in cache mode")
    val first = if (has(keys.head)) 1 else 0
    val data = s"run-${java.util.UUID.randomUUID()}"
    try {
      RowStage.since(staged, first).write.option("compression", compression).parquet(runs.resolve(data).toString)
      keys.zipWithIndex.drop(first).foreach { case (key, k) =>
        delete(key)
        Files.createDirectories(path(key))
        Files.write(path(key).resolve(CacheManager.RefFile), s"$data\t$k".getBytes(UTF_8))
        Files.createFile(path(key).resolve("_SUCCESS"))
      }
    } catch {
      case e: Throwable =>
        keys.drop(first).foreach(delete)
        delete(runs.resolve(data))
        Try(Files.delete(runs)) // only if no other run's data is there
        throw e
    }
    load(keys.last)
  }

  def delete(key: String): Unit = delete(path(key))

  private def delete(p: Path): Unit = {
    if (Files.exists(p)) {
      Files.walk(p).sorted(java.util.Comparator.reverseOrder[Path]())
        .forEach(f => Try(Files.delete(f)))
    }
  }

  /** The keys of the cache entries currently on disk; `_runs`, where row
    * runs keep their data, is not an entry.
    */
  def entries: Seq[String] =
    if (!Files.exists(Paths.get(dir))) Nil
    else Files.list(Paths.get(dir)).toArray.map(_.asInstanceOf[Path].getFileName.toString)
      .filterNot(_.startsWith("_")).toSeq.sorted

  /** Total bytes on disk under the cache directory. */
  def bytes: Long =
    if (!Files.exists(Paths.get(dir))) 0L
    else Files.walk(Paths.get(dir)).toArray.map(p => Try(Files.size(p.asInstanceOf[Path])).getOrElse(0L)).sum
}

object CacheManager {
  val ModeCache      = "cache"
  val ModeCheckpoint = "checkpoint"

  /** File of an entry directory that points into a row run's data. */
  private val RefFile = "_ref"

  /** The footer key under which Spark's parquet writer stores the written
    * frame's schema as JSON.
    */
  private val RowMetadataKey = "org.apache.spark.sql.parquet.row.metadata"
}

/** Closed-form space-usage model from Appendix A.2. Whoever builds the
  * [[CacheManager]] chooses its mode; this bounds what cache mode stores.
  */
object SpaceModel {
  /** Cache-mode space: (1 + M + F + 1(F>0) + D) × S — one cache for the
    * loaded dataset, one per OP, plus one extra for the first Filter (it adds
    * the stats column). That is the paper's count of one full copy per OP.
    * Here a row run stores each version of a row once ([[CacheManager.saveRun]]),
    * so the real size is smaller and the formula is a conservative upper bound.
    */
  def cacheMode(mappers: Int, filters: Int, dedups: Int, datasetBytes: Long): Long =
    (1L + mappers + filters + (if (filters > 0) 1 else 0) + dedups) * datasetBytes

  /** Same accounting driven by an OP list. */
  def cacheMode(ops: Seq[Op], datasetBytes: Long): Long = {
    val m = ops.count(_.isInstanceOf[Mapper])
    val f = ops.count(o => o.isInstanceOf[Filter] || o.isInstanceOf[MetaFilter])
    val d = ops.count(_.isInstanceOf[Deduplicator])
    cacheMode(m, f, d, datasetBytes)
  }
}
