package djbench

import java.nio.file.Path
import repro.core.{Hashing, Recipe}

/** A benchmark workload: a seeded corpus and the recipe run over it.
  *
  * Sizes are chosen so that one run of the recipe takes a few seconds on a
  * 4-core machine, which leaves room for several timed runs per invocation.
  */
sealed trait Workload {
  def name: String
  def corpus(seed: Long): Corpus
  /** The recipe, read from its YAML file under the checkout `root`. */
  def recipe(root: Path): Recipe
  /** Duplicate-cluster key of a sample entering the Deduplicator: the
    * planted cluster where the corpus plants them, else the exact content
    * hash the recipe's exact dedup must collapse.
    */
  def clusterKey(row: Row, plantedCluster: Int): Long = Hashing.contentHash(row.text)
}

object Workload {

  /** Web pre-training mix through the Data-Juicer English pre-training
    * recipe: 5 Mappers, 8 Filters, exact dedup. The row layer does most of
    * the work; the Cache is idle.
    */
  case object WebPretrain extends Workload {
    val name = "web-pretrain"
    val Docs = 1000
    def corpus(seed: Long): Corpus = Corpus.mixture(Corpus.WebMix, Docs, 250, seed)
    def recipe(root: Path): Recipe = Recipe.fromFile(root.resolve("configs/dj-pretrain-en.yaml").toString)
  }

  /** Unique docs plus planted near-duplicate clusters through one cheap Mapper
    * and MinHash dedup: hashing, buckets, verification and connected
    * components do most of the work.
    */
  case object NearDup extends Workload {
    val name = "near-dup"
    def corpus(seed: Long): Corpus = Corpus.nearDup(unique = 1000, quads = 60, pairs = 150, seed = seed)
    def recipe(root: Path): Recipe = Recipe.fromFile(root.resolve("djbench/recipes/near-dup.yaml").toString)
    override def clusterKey(row: Row, plantedCluster: Int): Long =
      if (plantedCluster >= 0) plantedCluster.toLong else -1L - row.id
  }

  /** The Fig. 9 14-OP recipe with per-OP caching, an Analyzer probe, an edit
    * of the last Filter and a resumed rerun: the Cache writes and reads, and
    * the Analyzer runs.
    */
  case object FeedbackLoop extends Workload {
    val name = "feedback-loop"
    val Docs = 500
    /** The recipe edit between the cold run and the resumed rerun. */
    val Edit = "word_repetition_filter.max=0.1"
    def corpus(seed: Long): Corpus = Corpus.mixture(Corpus.Fig9Mix, Docs, 220, seed)
    def recipe(root: Path): Recipe = Recipe.fromFile(root.resolve("djbench/recipes/fusion14.yaml").toString)
  }

  val all: Seq[Workload] = Seq(WebPretrain, NearDup, FeedbackLoop)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
