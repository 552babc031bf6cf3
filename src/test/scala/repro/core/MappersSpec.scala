package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Mappers._

/** Row-level behaviour of every Mapper, plus one DataFrame-level lift check. */
class MappersSpec extends SparkSpec with TestData {

  test("whitespace normalization collapses runs and blank lines") {
    val m = WhitespaceNormalizationMapper()
    assert(m.mapText("a  b\t c") == "a b c")
    assert(m.mapText("a\n\n\n\nb") == "a\n\nb")
    assert(m.mapText("  padded  ") == "padded")
    assert(m.mapText("a\u00A0b") == "a b")
  }

  test("fix unicode drops control chars and replacement char") {
    val m = FixUnicodeMapper()
    assert(m.mapText("a\u0000b\u0007c") == "abc")
    assert(m.mapText("x�y") == "xy")
    assert(m.mapText("keep\nnewline\tand tab") == "keep\nnewline\tand tab")
  }

  test("remove emails") {
    val m = RemoveEmailsMapper()
    assert(m.mapText("mail me at a.b+c@example.co.uk now") == "mail me at  now")
    assert(m.mapText("no emails here @ all") == "no emails here @ all")
  }

  test("remove emails with replacement token") {
    assert(RemoveEmailsMapper("[EMAIL]").mapText("x a@b.com y") == "x [EMAIL] y")
  }

  test("remove IP addresses") {
    val m = RemoveIpAddressesMapper()
    assert(m.mapText("host 192.168.0.1 up") == "host  up")
    assert(m.mapText("version 1.2.3 stays") == "version 1.2.3 stays")
    assert(m.mapText("999.999.999.999 is not an ip") == "999.999.999.999 is not an ip")
  }

  test("remove links") {
    val m = RemoveLinksMapper()
    assert(m.mapText("see https://a.b/c?d=e and www.foo.org/x done") == "see  and  done")
    assert(m.mapText("ftp://files.example.com/f") == "")
  }

  test("remove html tags and decode entities") {
    val m = RemoveHtmlTagsMapper()
    assert(m.mapText("<p>hi</p>").trim == "hi")
    assert(m.mapText("a &amp; b &lt;ok&gt;") == "a & b <ok>")
    assert(m.mapText("<script>evil()</script>rest").trim == "rest")
  }

  test("punctuation normalization maps unicode to ascii") {
    val m = PunctuationNormalizationMapper()
    assert(m.mapText("“quote” — dash … 中文。") == "\"quote\" - dash ... 中文.")
  }

  test("lowercase mapper") {
    assert(LowercaseMapper().mapText("MiXeD Case") == "mixed case")
  }

  test("remove specific chars") {
    assert(RemoveSpecificCharsMapper().mapText("a◆b●c") == "abc")
    assert(RemoveSpecificCharsMapper("xy").mapText("xayb") == "ab")
  }

  test("remove long words drops oversized tokens") {
    val m = RemoveLongWordsMapper(maxLen = 5)
    assert(m.mapText("short verylongword ok") == "short ok")
    assert(m.mapText("all small here") == "all small here")
  }

  test("remove long words keeps the line breaks and tabs around a dropped word") {
    val m = RemoveLongWordsMapper()
    val long = "x" * 41
    assert(m.mapText("a\n" + long + " b") == "a\nb")
    assert(m.mapText(s"a $long\nb") == "a\nb")
    assert(m.mapText(s"a\t$long\tb\n$long\nc") == "a\tb\nc")
    assert(m.mapText(s"a\n\n$long b") == "a\n\nb")
    // Spaces or a tab around the dropped word leave no blank line behind.
    assert(m.mapText(s"a\n$long \nb") == "a\nb")
    assert(m.mapText(s"a\n $long\nb") == "a\nb")
    assert(m.mapText(s"a\n$long\t\nb") == "a\nb")
    assert(m.mapText(s"a\n$long  c\nb") == "a\nc\nb")
  }

  test("remove header mapper strips latex/markdown headers") {
    val m = RemoveHeaderMapper()
    assert(m.mapText("\\documentclass{article}\nbody text") == "body text")
    assert(m.mapText("# Title\ncontent\n## Sub\nmore") == "content\nmore")
  }

  test("remove comments mapper strips prefixed lines") {
    val m = RemoveCommentsMapper()
    assert(m.mapText("% tex comment\nreal\n// c comment\ncode") == "real\ncode")
  }

  test("remove bibliography truncates at the marker") {
    val m = RemoveBibliographyMapper()
    assert(m.mapText("text\\begin{thebibliography}refs") == "text")
    assert(m.mapText("body\nReferences\n[1] x") == "body")
    assert(m.mapText("no refs at all") == "no refs at all")
  }

  test("remove table text drops pipe-heavy lines") {
    val m = RemoveTableTextMapper()
    assert(m.mapText("| a | b | c |\nprose line") == "prose line")
  }

  test("clean copyright strips license headers") {
    val m = CleanCopyrightMapper()
    assert(m.mapText("/* Copyright 2020 Foo */\ncode here") == "code here")
    assert(m.mapText("// Copyright X\n// License MIT\nreal code") == "real code")
    assert(m.mapText("/* keep this block */\ncode") == "/* keep this block */\ncode")
  }

  test("remove repeated lines collapses consecutive dups") {
    val m = RemoveRepeatedLinesMapper()
    assert(m.mapText("a\na\nb\na") == "a\nb\na")
  }

  test("all mappers tolerate empty input") {
    Mappers.all.foreach(m => assert(m.mapText("") != null, m.name))
  }

  test("mapper names are unique and snake_case") {
    val names = Mappers.all.map(_.name)
    assert(names.distinct.size == names.size)
    assert(names.forall(_.matches("[a-z0-9_]+")))
  }

  test("DataFrame lift applies mapText per row and handles null text") {
    val session = spark
    import session.implicits._
    val df = Schema.ensure(Seq((0L, "A  B"), (1L, null)).toDF(Schema.Id, Schema.Text))
    val out = texts(WhitespaceNormalizationMapper()(df))
    assert(out == Seq("A B", ""))
  }
}
