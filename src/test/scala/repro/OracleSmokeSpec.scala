package repro

import org.apache.spark.sql.functions._

/** Keeps the DuckDB oracle honest on graph counts with a closed form:
  * triangles (three-way self-join) and wedges (two-way self-join).
  */
class OracleSmokeSpec extends SparkSpec {

  test("ORACLE: triangle count on a small graph via SQL three-way join") {
    val g = repro.graph.Generators.ringChords(30, 25, seed = 4)
    val pairs = repro.graph.Graphs.edgesDF(spark, g)
      .where(col("src") < col("dst"))
      .select(col("src") as "a", col("dst") as "b")
    // Spark side: the exact census entry for the triangle
    val census = repro.core.ExactCount.census(g, 3)
    val triangleCode = (1L << 3) - 1 // all three pairs present
    val triangles = census.getOrElse(
      repro.graphlet.Graphlet.canonicalOfCode(triangleCode, 3), 0L)
    import spark.implicits._
    val sparkSide = Seq(triangles).toDF("triangles")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT COUNT(*) AS triangles
         FROM edges e1 JOIN edges e2 ON e1.b = e2.a
                       JOIN edges e3 ON e2.b = e3.b AND e1.a = e3.a""",
      "edges" -> pairs)
  }

  test("ORACLE: wedge count matches Σ d(d−1)/2") {
    val g = repro.graph.Generators.er(60, 180, seed = 5)
    val edges = repro.graph.Graphs.edgesDF(spark, g)
    val wedges = (0 until g.n).map(v => { val d = g.degree(v).toLong; d * (d - 1) / 2 }).sum
    import spark.implicits._
    val sparkSide = Seq(wedges).toDF("wedges")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT COUNT(*) AS wedges
         FROM edges e1 JOIN edges e2 ON e1.src = e2.src AND e1.dst < e2.dst""",
      "edges" -> edges)
  }
}
