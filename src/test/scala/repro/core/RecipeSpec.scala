package repro.core

import repro.{SparkSpec, TestData}

class RecipeSpec extends SparkSpec with TestData {

  private val yaml =
    """name: test-recipe
      |ops:
      |  - lowercase_mapper
      |  - text_length_filter: {min_len: 5, max_len: 100}
      |  - exact_doc_deduplicator
      |""".stripMargin

  test("registry holds the paper's 'over 50 OPs'") {
    assert(OpRegistry.size > 50, s"only ${OpRegistry.size} registered OPs")
  }

  test("every registered OP builds with default params") {
    OpRegistry.specs.keys.foreach { name =>
      val op = OpRegistry.build(name, Map.empty)
      assert(op.name == name, s"$name builds an op named ${op.name}")
    }
  }

  test("a registry spec built without parameters equals its case class's default instance") {
    // The instance the case class's constructor defaults build, if every
    // constructor parameter has one (the companion's `<init>$default$i`).
    def defaultOf(op: Op): Option[Op] = {
      val ctor = op.getClass.getConstructors.head
      val companion = Class.forName(op.getClass.getName + "$")
      val module = companion.getField("MODULE$").get(null)
      val defaults = (1 to ctor.getParameterCount).map(i =>
        companion.getMethods.find(_.getName == s"$$lessinit$$greater$$default$$$i").map(_.invoke(module)))
      Option.when(defaults.forall(_.isDefined))(ctor.newInstance(defaults.flatten: _*).asInstanceOf[Op])
    }
    val noDefaults = OpRegistry.specs.keys.toSeq.sorted.filter { name =>
      val op = OpRegistry.build(name, Map.empty)
      val default = defaultOf(op)
      default.foreach(d => assert(op == d, name))
      default.isEmpty
    }
    assert(noDefaults.toSet ==
      Set("jsonl_formatter", "csv_formatter", "text_formatter", "parquet_formatter", "meta_field_filter"))
  }

  test("registry categories cover the four OP classes") {
    val cats = OpRegistry.specs.values.map(_.category).toSet
    assert(cats == Set[OpCategory](OpCategory.Formatter, OpCategory.Mapper, OpCategory.Filter, OpCategory.Deduplicator))
    assert(cats.map(_.toString) == Set("formatter", "mapper", "filter", "deduplicator"))
  }

  test("usage tags include the paper's scenario labels") {
    val tags = OpRegistry.specs.values.flatMap(_.usageTags).toSet
    assert(Set("general", "latex", "code", "en", "zh", "web", "financial").subsetOf(tags))
  }

  test("yaml parsing resolves ops and params") {
    val r = Recipe.fromYaml(yaml)
    assert(r.name == "test-recipe")
    assert(r.ops.map(_.name) == Seq("lowercase_mapper", "text_length_filter", "exact_doc_deduplicator"))
    assert(r.ops(1).asInstanceOf[Filters.TextLengthFilter].minLen == 5)
  }

  test("yaml with unknown op fails at parse time") {
    val bad = "name: x\nops:\n  - not_a_real_op\n"
    assertThrows[IllegalArgumentException](Recipe.fromYaml(bad))
  }

  test("yaml without ops fails") {
    assertThrows[IllegalArgumentException](Recipe.fromYaml("name: empty"))
  }

  test("overrides change only the targeted parameter") {
    val r = Recipe.fromYaml(yaml).withOverrides(Seq("text_length_filter.min_len=9"))
    val f = r.ops(1).asInstanceOf[Filters.TextLengthFilter]
    assert(f.minLen == 9 && f.maxLen == 100)
  }

  test("override of an op not in the recipe is an error") {
    assertThrows[IllegalArgumentException](
      Recipe.fromYaml(yaml).withOverrides(Seq("word_count_filter.min_words=2")))
  }

  test("a malformed override is an error that names it") {
    for (o <- Seq("text_length_filter", "min_len=3", "text_length_filter.=3")) {
      val e = intercept[IllegalArgumentException](Recipe.fromYaml(yaml).withOverrides(Seq(o)))
      assert(e.getMessage.contains(s"'$o'"), e.getMessage)
    }
  }

  test("an override of a parameter the OP does not read is an error") {
    val e = intercept[IllegalArgumentException](
      Recipe.fromYaml(yaml).withOverrides(Seq("text_length_filter.minlen=3")))
    assert(e.getMessage.contains("'text_length_filter'") && e.getMessage.contains("'minlen'"), e.getMessage)
    assert(e.getMessage.contains("min_len"), e.getMessage)
  }

  test("a yaml parameter the OP does not read fails at parse time") {
    val e = intercept[IllegalArgumentException](Recipe.fromYaml(yaml.replace("min_len", "minlen")))
    assert(e.getMessage.contains("'text_length_filter'") && e.getMessage.contains("'minlen'"), e.getMessage)
    val e2 = intercept[IllegalArgumentException](Recipe.fromYaml("name: x\nops:\n  - lowercase_mapper: {min_len: 3}\n"))
    assert(e2.getMessage.contains("'lowercase_mapper'") && e2.getMessage.contains("reads: none"), e2.getMessage)
  }

  test("addition editing with a parameter the OP does not read is an error") {
    assertThrows[IllegalArgumentException](Recipe.fromYaml(yaml).add("word_count_filter", Map("min_word" -> 3)))
  }

  test("subtraction editing removes an op") {
    val r = Recipe.fromYaml(yaml).without("lowercase_mapper")
    assert(r.ops.map(_.name) == Seq("text_length_filter", "exact_doc_deduplicator"))
  }

  test("addition editing appends an op with params") {
    val r = Recipe.fromYaml(yaml).add("word_count_filter", Map("min_words" -> 3))
    assert(r.ops.last.asInstanceOf[Filters.WordCountFilter].minWords == 3)
  }

  test("recipe pipeline end-to-end") {
    val df = docsDf("KEEP this Document", "no", "KEEP this Document", "Another good one")
    val out = Recipe.fromYaml(yaml).pipeline(fuse = true, reorder = true).run(df)
    assert(texts(out.orderBy(Schema.Id)) == Seq("keep this document", "another good one"))
  }

  test("params coercion: strings, numbers, lists") {
    val p = OpParams(Map("a" -> java.lang.Integer.valueOf(3), "b" -> "4.5",
      "c" -> java.util.List.of("x", "y")))
    assert(p.int("a", 0) == 3)
    assert(p.double("b", 0) == 4.5)
    assert(p.strings("c", Nil) == Seq("x", "y"))
    assert(p.long("missing", 9L) == 9L)
    assert(p.string("missing", "d") == "d")
  }

  test("experiment recipes parse and build") {
    import repro.exp.Recipes
    assert(Recipes.djPretrain.ops.size == 14)
    assert(Recipes.refinedWebLight.ops.size == 4)
    assert(Recipes.djPosttune.ops.nonEmpty)
    val f14 = Recipes.fusion14.ops
    assert(f14.size == 14)
    assert(f14.count(_.isInstanceOf[Mapper]) == 5)
    assert(f14.count(o => o.isInstanceOf[Filter] || o.isInstanceOf[MetaFilter]) == 8)
    assert(f14.count(_.isInstanceOf[Deduplicator]) == 1)
    // the paper's "5 of these OPs being fuse-able": 5 Words-context filters
    val fusible = f14.collect { case f: Filter if f.contexts.contains(ContextKey.Words) => f }
    assert(fusible.size >= 4)
  }

  test("a formatter in a recipe's op list is an error naming it") {
    val e = intercept[IllegalArgumentException](Recipe.fromYaml("name: x\nops:\n  - jsonl_formatter: {path: in.jsonl}\n"))
    assert(e.getMessage.contains("jsonl_formatter"))
  }

  test("an unknown tokenizer in a recipe is an error") {
    val bad = "name: x\nops:\n  - token_count_filter: {tokenizer: bogus}\n"
    val e = intercept[IllegalArgumentException](Recipe.fromYaml(bad))
    assert(e.getMessage.contains("bogus"))
  }
}
