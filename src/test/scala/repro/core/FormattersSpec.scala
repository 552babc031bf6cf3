package repro.core

import java.nio.file.Files
import repro.{SparkSpec, TestData}

class FormattersSpec extends SparkSpec with TestData {

  private def tmpDir(prefix: String): String =
    Files.createTempDirectory(prefix).toString

  test("Schema.ensure adds missing columns and orders them") {
    val session = spark
    import session.implicits._
    val df = Seq("one", "two").toDF(Schema.Text)
    val out = Schema.ensure(df)
    assert(out.columns.toSeq == Schema.columns)
    assert(out.count() == 2)
  }

  test("Schema.ensure rejects datasets without text") {
    val session = spark
    import session.implicits._
    val df = Seq(1, 2).toDF("x")
    assertThrows[IllegalArgumentException](Schema.ensure(df))
  }

  test("jsonl formatter unifies text key and meta keys") {
    val dir = tmpDir("jsonl")
    val f = new java.io.PrintWriter(s"$dir/d.jsonl")
    f.println("""{"content": "hello world", "lang": "EN", "src": "web"}""")
    f.println("""{"content": "second doc", "lang": "ZH", "src": "book"}""")
    f.close()
    val df = Formatters.JsonlFormatter(s"$dir/d.jsonl", textKey = "content", metaKeys = Seq("lang", "src")).load(spark)
    assert(df.columns.toSeq == Schema.columns)
    val rows = df.orderBy(Schema.Text).collect()
    assert(rows.map(_.getAs[String](Schema.Text)).toSeq == Seq("hello world", "second doc"))
    assert(rows(0).getAs[Map[String, String]](Schema.Meta) == Map("lang" -> "EN", "src" -> "web"))
  }

  private def jsonl(lines: String*): String = {
    val file = java.nio.file.Paths.get(tmpDir("jsonl"), "d.jsonl")
    Files.writeString(file, lines.mkString("", "\n", "\n"))
    file.toString
  }

  test("jsonl formatter reads its declared keys without a Spark job") {
    val path = jsonl("""{"text": "one", "lang": "EN", "n": 1}""", """{"text": "two", "extra": [1, 2]}""")
    val (jobs, df) = countJobs(Formatters.JsonlFormatter(path, metaKeys = Seq("lang")).load(spark))
    assert(jobs == 0, s"load started $jobs Spark jobs")
    assert(df.columns.toSeq == Schema.columns)
    assert(texts(df.orderBy(Schema.Text)).sorted == Seq("one", "two"))
  }

  test("jsonl formatter reads a non-string meta value as its JSON text, and an absent one as no entry") {
    val path = jsonl(
      """{"text": "a", "n": 5, "obj": {"a": 1}, "lang": "EN"}""",
      """{"text": "b", "n": 2.5, "obj": {"a": 2, "b": [true, null]}}""")
    val df = Formatters.JsonlFormatter(path, metaKeys = Seq("n", "obj", "lang")).load(spark)
    val metas = df.collect().map(r => r.getAs[String](Schema.Text) -> r.getAs[Map[String, String]](Schema.Meta)).toMap
    // The text as the file spells it, not a cast of an inferred type
    // (inference read "5.0" and "{1}" here).
    assert(metas("a") == Map("n" -> "5", "obj" -> """{"a": 1}""", "lang" -> "EN"))
    assert(metas("b") == Map("n" -> "2.5", "obj" -> """{"a": 2, "b": [true, null]}"""))
  }

  test("jsonl formatter fails at the first action on a record without the text key, naming the key and file") {
    val path = jsonl("""{"content": "hello world"}""", """{"content": "second doc"}""")
    val df = Formatters.JsonlFormatter(path).load(spark)
    val e = intercept[Exception](df.collect())
    assert(e.getMessage.contains("'text'") && e.getMessage.contains("d.jsonl"), e.getMessage)
    // One record without it, or with a null text, or a line that is not JSON, fails the same way.
    for (bad <- Seq("""{"content": "x"}""", """{"text": null}""", """{"text": "unterminated"""))
      intercept[Exception](Formatters.JsonlFormatter(jsonl("""{"text": "fine"}""", bad)).load(spark).collect())
  }

  test("csv formatter loads header files") {
    val dir = tmpDir("csv")
    val f = new java.io.PrintWriter(s"$dir/d.csv")
    f.println("text,tag"); f.println("alpha,x"); f.println("beta,y"); f.close()
    val df = Formatters.CsvFormatter(s"$dir/d.csv", metaCols = Seq("tag")).load(spark)
    assert(texts(df.orderBy(Schema.Text)).sorted == Seq("alpha", "beta"))
  }

  test("text formatter wholeFile mode: one sample per file with source meta") {
    val dir = tmpDir("txt")
    Files.writeString(java.nio.file.Paths.get(s"$dir/a.txt"), "file a line1\nline2")
    Files.writeString(java.nio.file.Paths.get(s"$dir/b.txt"), "file b")
    val df = Formatters.TextFormatter(dir).load(spark)
    assert(df.count() == 2)
    val metas = df.collect().map(_.getAs[Map[String, String]](Schema.Meta))
    assert(metas.forall(_.get("source").exists(_.nonEmpty)))
  }

  test("text formatter line mode: one sample per line") {
    val dir = tmpDir("txtl")
    Files.writeString(java.nio.file.Paths.get(s"$dir/a.txt"), "l1\nl2\nl3")
    assert(Formatters.TextFormatter(dir, wholeFile = false).load(spark).count() == 3)
  }

  test("parquet formatter round-trips a unified dataset") {
    val dir = tmpDir("pq")
    val df = docsWithMeta(("alpha", Map("k" -> "v")), ("beta", Map.empty))
    df.write.mode("overwrite").parquet(s"$dir/data")
    val back = Formatters.ParquetFormatter(s"$dir/data").load(spark)
    assert(texts(back).sorted == Seq("alpha", "beta"))
  }

  test("in-memory formatter renames text field and packs meta") {
    val session = spark
    import session.implicits._
    val src = Seq(("doc one", "EN", 5), ("doc two", "ZH", 7)).toDF("body", "lang", "n")
    val df = Formatters.InMemoryFormatter(src, textField = "body", metaFields = Seq("lang", "n")).load(spark)
    assert(df.columns.toSeq == Schema.columns)
    val m = df.orderBy(Schema.Text).collect()(0).getAs[Map[String, String]](Schema.Meta)
    assert(m == Map("lang" -> "EN", "n" -> "5"))
  }

  test("mix with fractional weights samples approximately") {
    val a = docsDf((1 to 200).map(i => s"a doc $i"): _*)
    val b = docsDf((1 to 200).map(i => s"b doc $i"): _*)
    val mixed = Formatters.mix(Seq(a -> 0.5, b -> 0.25), seed = 3L)
    val n = mixed.count()
    assert(n > 90 && n < 210, s"got $n")
  }

  test("mix with epoch weights replicates whole datasets") {
    val a = docsDf("one", "two")
    val mixed = Formatters.mix(Seq(a -> 2.0))
    assert(mixed.count() == 4)
    // ids must stay unique for downstream dedup
    assert(mixed.select(Schema.Id).distinct().count() == 4)
  }

  test("mix of mixed epoch+fraction weight") {
    val a = docsDf((1 to 100).map(i => s"doc $i"): _*)
    val n = Formatters.mix(Seq(a -> 2.5), seed = 9L).count()
    assert(n > 220 && n < 280, s"got $n")
  }
}
