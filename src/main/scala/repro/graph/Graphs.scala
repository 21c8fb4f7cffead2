package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Spark-side graph representation: a symmetric, simple edge-list
  * DataFrame (src: Long, dst: Long) with both orientations of every
  * undirected edge — the input [[repro.core.BuildUp.run]] builds each
  * vertex's adjacency ("u ~ v") from.
  */
object Graphs {

  /** Symmetric edge DataFrame from a LocalGraph. */
  def edgesDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    val pairs = g.edgePairs.flatMap { case (a, b) =>
      Iterator((a.toLong, b.toLong), (b.toLong, a.toLong))
    }.toSeq
    spark.createDataset(pairs).toDF("src", "dst")
  }

  def verticesDF(spark: SparkSession, g: LocalGraph): DataFrame =
    spark.range(g.n).toDF("v")

  /** Normalize an arbitrary edge DataFrame: drop self-loops, dedupe, and
    * symmetrize. Entry point for external edge lists fed to jobs.
    */
  def normalize(edges: DataFrame): DataFrame = {
    val e = edges.toDF("src", "dst")
      .where(col("src") =!= col("dst"))
      .select(least(col("src"), col("dst")) as "a", greatest(col("src"), col("dst")) as "b")
      .distinct()
    e.select(col("a") as "src", col("b") as "dst")
      .unionAll(e.select(col("b") as "src", col("a") as "dst"))
  }

  /** Collect a (small) symmetric edge DataFrame back into a LocalGraph. */
  def toLocal(edges: DataFrame): LocalGraph = {
    val rows = edges.select(col("src").cast("long"), col("dst").cast("long"))
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    val n = if (rows.isEmpty) 0 else rows.iterator.flatMap(p => Iterator(p._1, p._2)).max + 1
    LocalGraph.fromEdges(n, rows)
  }
}
